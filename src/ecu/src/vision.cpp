#include "ev/ecu/vision.h"

#include <algorithm>
#include <cmath>

#include "ev/util/worker_pool.h"

namespace ev::ecu {

Image generate_scene(std::size_t width, std::size_t height, std::size_t pedestrians,
                     util::Rng& rng) {
  Image img;
  img.width = width;
  img.height = height;
  img.pixels.resize(width * height);
  // Textured road/background.
  for (auto& p : img.pixels) p = static_cast<std::uint8_t>(70 + rng.uniform_int(0, 30));
  // Bright vertical figures with a head blob (crude but edge-rich).
  for (std::size_t k = 0; k < pedestrians; ++k) {
    const auto cx = static_cast<std::size_t>(rng.uniform_int(10, static_cast<std::int64_t>(width) - 11));
    const auto top = static_cast<std::size_t>(rng.uniform_int(5, std::max<std::int64_t>(6, static_cast<std::int64_t>(height) - 40)));
    const std::size_t body_h = 28;
    for (std::size_t y = top; y < std::min(top + body_h, height); ++y) {
      const std::size_t half = (y < top + 6) ? 3 : 2;  // head wider than body
      for (std::size_t x = cx > half ? cx - half : 0; x <= std::min(cx + half, width - 1); ++x)
        img.pixels[y * width + x] = static_cast<std::uint8_t>(200 + rng.uniform_int(0, 40));
    }
  }
  return img;
}

namespace {

/// Gradient-energy score of one window: fraction of strong vertical edges,
/// the dominant feature of an upright figure.
double window_score(const Image& img, std::size_t wx, std::size_t wy,
                    const DetectorConfig& cfg) {
  double vertical_edges = 0.0;
  double total = 0.0;
  for (std::size_t y = wy + 1; y + 1 < wy + cfg.window_h && y + 1 < img.height; ++y) {
    for (std::size_t x = wx + 1; x + 1 < wx + cfg.window_w && x + 1 < img.width; ++x) {
      const double gx = static_cast<double>(img.at(x + 1, y)) - img.at(x - 1, y);
      const double gy = static_cast<double>(img.at(x, y + 1)) - img.at(x, y - 1);
      const double mag = std::sqrt(gx * gx + gy * gy);
      total += 1.0;
      // A vertical contour has a strong horizontal gradient.
      if (mag > 40.0 && std::fabs(gx) > std::fabs(gy)) vertical_edges += 1.0;
    }
  }
  return total > 0.0 ? vertical_edges / total * 8.0 : 0.0;  // scaled to ~[0, 1.5]
}

void scan_rows(const Image& img, const DetectorConfig& cfg, std::size_t row_begin,
               std::size_t row_end, std::vector<Detection>* out) {
  for (std::size_t wy = row_begin; wy < row_end; wy += cfg.stride) {
    if (wy + cfg.window_h > img.height) break;
    for (std::size_t wx = 0; wx + cfg.window_w <= img.width; wx += cfg.stride) {
      const double score = window_score(img, wx, wy, cfg);
      if (score >= cfg.threshold) out->push_back(Detection{wx, wy, score});
    }
  }
}

}  // namespace

std::vector<Detection> detect_pedestrians_scalar(const Image& image,
                                                 const DetectorConfig& config) {
  std::vector<Detection> out;
  scan_rows(image, config, 0, image.height, &out);
  return out;
}

std::vector<Detection> detect_pedestrians_parallel(const Image& image,
                                                   const DetectorConfig& config,
                                                   std::size_t workers) {
  if (workers <= 1) return detect_pedestrians_scalar(image, config);
  // Split the window-row space into contiguous stride-aligned chunks.
  const std::size_t total_rows =
      image.height >= config.window_h ? (image.height - config.window_h) / config.stride + 1
                                      : 0;
  const std::size_t chunk = (total_rows + workers - 1) / workers;
  // One detection slot per chunk, concatenated in chunk order below.
  std::vector<std::vector<Detection>> partial(workers);
  const int chunks = static_cast<int>(workers);
  util::WorkerPool pool(chunks);
  pool.run(chunks, [&](int w) {
    const std::size_t first_row = static_cast<std::size_t>(w) * chunk;
    const std::size_t last_row = std::min(total_rows, first_row + chunk);
    scan_rows(image, config, first_row * config.stride, last_row * config.stride,
              &partial[static_cast<std::size_t>(w)]);
  });
  std::vector<Detection> out;
  for (auto& p : partial) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace ev::ecu

/// \file vision.h
/// Camera-based pedestrian recognition workload ([23]): the safety function
/// the paper motivates for near-silent EVs. A HOG-style detection pipeline
/// (gradients -> cell histograms -> sliding-window scoring) runs either
/// scalar or on a data-parallel accelerator model (thread pool standing in
/// for the GPU's hardware parallelism). Results are bit-identical across
/// both paths; experiment E10 measures the speed-up.
#pragma once

#include <cstdint>
#include <vector>

#include "ev/util/rng.h"

namespace ev::ecu {

/// 8-bit grayscale image.
struct Image {
  std::size_t width = 0;
  std::size_t height = 0;
  std::vector<std::uint8_t> pixels;  ///< Row-major, width*height entries.

  [[nodiscard]] std::uint8_t at(std::size_t x, std::size_t y) const {
    return pixels[y * width + x];
  }
};

/// A detection: window position and matching score.
struct Detection {
  std::size_t x = 0;
  std::size_t y = 0;
  double score = 0.0;
};

/// Renders a synthetic street scene of the given size with \p pedestrians
/// bright vertical figures over textured background (deterministic in rng).
[[nodiscard]] Image generate_scene(std::size_t width, std::size_t height,
                                   std::size_t pedestrians, util::Rng& rng);

/// Detection parameters.
struct DetectorConfig {
  std::size_t window_w = 16;   ///< Detection window size in pixels.
  std::size_t window_h = 32;
  std::size_t stride = 8;      ///< Window step.
  double threshold = 0.55;     ///< Score threshold for reporting.
};

/// Scalar reference implementation.
[[nodiscard]] std::vector<Detection> detect_pedestrians_scalar(const Image& image,
                                                               const DetectorConfig& config);

/// Data-parallel implementation: \p workers contiguous chunks of window rows
/// are processed concurrently by util::parallel_for (the accelerator model).
/// Produces exactly the same detections as the scalar path.
[[nodiscard]] std::vector<Detection> detect_pedestrians_parallel(
    const Image& image, const DetectorConfig& config, std::size_t workers);

}  // namespace ev::ecu

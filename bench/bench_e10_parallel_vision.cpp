// Experiment E10 (paper Section 3.2 "GPU", ref [23]): pedestrian-detection
// image processing on a data-parallel accelerator model vs a scalar CPU
// path. Measures the speed-up vs worker count and image size — the paper's
// argument that "a GPU is significantly faster at processing an image"
// thanks to hardware-level parallelism, with overhead dominating small
// inputs.
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "ev/ecu/vision.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::ecu;
using Clock = std::chrono::steady_clock;

double time_ms(const std::function<void()>& fn, int repeats = 3) {
  double best = 1e18;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return best;
}

void run_experiment() {
  std::puts("E10 — pedestrian detection: scalar CPU vs data-parallel accelerator\n");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host parallelism: %u hardware thread(s). Thread speed-up is\n"
              "bounded by this; the 'PE model' column shows the accelerator\n"
              "scaling law (work/span + dispatch overhead) the threads realize\n"
              "when hardware parallelism is available.\n\n", hw);
  const DetectorConfig cfg;

  ev::util::Table table("detection latency vs image size and parallel width",
                        {"image", "windows", "scalar ms", "4 workers", "8 workers",
                         "speedup x8", "PE model x8", "detections"});
  struct Size {
    std::size_t w, h;
  };
  for (const Size s : {Size{160, 120}, Size{320, 240}, Size{640, 480}, Size{1280, 720}}) {
    ev::util::Rng rng(31);
    const Image img = generate_scene(s.w, s.h, 6, rng);
    std::vector<Detection> out;
    const double scalar_ms =
        time_ms([&] { out = detect_pedestrians_scalar(img, cfg); });
    const double p4_ms =
        time_ms([&] { (void)detect_pedestrians_parallel(img, cfg, 4); });
    const double p8_ms =
        time_ms([&] { (void)detect_pedestrians_parallel(img, cfg, 8); });
    const std::size_t windows =
        ((s.w - cfg.window_w) / cfg.stride + 1) * ((s.h - cfg.window_h) / cfg.stride + 1);
    // Accelerator scaling law: perfect division of the window workload over
    // 8 processing elements plus a fixed per-worker dispatch cost (measured
    // thread spawn ~50 us on this host).
    constexpr double kDispatchMsPerWorker = 0.05;
    const double model8_ms = scalar_ms / 8.0 + 8 * kDispatchMsPerWorker;
    // Overwritten per size; the snapshot keeps the 1280x720 frame. The
    // wall-clock columns stay out of the gauges (non-deterministic).
    evbench::set_gauge("e10.windows", static_cast<double>(windows));
    evbench::set_gauge("e10.detections", static_cast<double>(out.size()));
    table.add_row({std::to_string(s.w) + "x" + std::to_string(s.h),
                   std::to_string(windows), ev::util::fmt(scalar_ms, 2),
                   ev::util::fmt(p4_ms, 2), ev::util::fmt(p8_ms, 2),
                   ev::util::fmt(scalar_ms / p8_ms, 2) + "x",
                   ev::util::fmt(scalar_ms / model8_ms, 2) + "x",
                   std::to_string(out.size())});
  }
  table.print();
  std::puts("expected shape: on hardware with >= 8 threads the measured "
            "speed-up approaches the PE-model column on large frames and "
            "collapses on small ones where dispatch dominates — the same "
            "scaling argument as GPU offload. On a single-hardware-thread "
            "host the measured columns stay ~1x while the model shows the "
            "realizable scaling.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e10_parallel_vision");
}

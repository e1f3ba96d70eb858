/// \file fault.h
/// Open-IGBT fault detection. An open switch removes one half-wave of the
/// affected phase current, producing a dc offset whose sign identifies which
/// switch of the leg failed — the diagnostic the fault-tolerant control
/// strategy of the paper needs before it can recompute post-fault PWM
/// sequences "quickly enough".
#pragma once

#include <cstddef>
#include <optional>

#include "ev/motor/inverter.h"
#include "ev/motor/transforms.h"

namespace ev::motor {

/// A located inverter fault.
struct FaultDiagnosis {
  int phase = -1;        ///< 0 = a, 1 = b, 2 = c.
  bool upper = false;    ///< True: upper switch open; false: lower.
  [[nodiscard]] Igbt igbt() const noexcept {
    return static_cast<Igbt>(phase * 2 + (upper ? 0 : 1));
  }
};

/// Sliding-window mean-current detector. sample() is called every control
/// period; once a phase's normalized mean current exceeds the threshold for
/// a full window, the fault is latched and diagnose() returns it.
class OpenSwitchDetector {
 public:
  /// \p window is the number of samples averaged (should cover at least one
  /// electrical period); \p threshold the normalized |mean|/|amplitude|
  /// ratio that triggers (healthy sinusoidal currents have ~0 mean).
  explicit OpenSwitchDetector(std::size_t window = 400, double threshold = 0.25);

  /// Feeds one sample of the three phase currents.
  void sample(const Abc& currents);

  /// Latched diagnosis, if any fault has been detected.
  [[nodiscard]] std::optional<FaultDiagnosis> diagnose() const noexcept { return latched_; }

  /// Number of samples consumed since construction.
  [[nodiscard]] std::size_t samples_seen() const noexcept { return seen_; }

 private:
  std::size_t window_;
  double threshold_;
  std::size_t seen_ = 0;
  double sum_[3] = {0, 0, 0};
  double abs_sum_[3] = {0, 0, 0};
  std::optional<FaultDiagnosis> latched_;
};

}  // namespace ev::motor

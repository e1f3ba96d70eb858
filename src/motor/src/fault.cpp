#include "ev/motor/fault.h"

#include <cmath>

namespace ev::motor {

OpenSwitchDetector::OpenSwitchDetector(std::size_t window, double threshold)
    : window_(window), threshold_(threshold) {}

void OpenSwitchDetector::sample(const Abc& currents) {
  if (latched_) return;
  const double i[3] = {currents.a, currents.b, currents.c};
  for (int p = 0; p < 3; ++p) {
    sum_[p] += i[p];
    abs_sum_[p] += std::fabs(i[p]);
  }
  ++seen_;
  if (seen_ < window_) return;

  for (int p = 0; p < 3; ++p) {
    const double mean = sum_[p] / static_cast<double>(seen_);
    const double mean_abs = abs_sum_[p] / static_cast<double>(seen_);
    if (mean_abs < 1e-3) continue;  // phase carries no current; nothing to judge
    if (std::fabs(mean) / mean_abs > threshold_) {
      // An open *upper* switch suppresses the positive half-wave, leaving a
      // negative mean; an open lower switch leaves a positive mean.
      latched_ = FaultDiagnosis{p, mean < 0.0};
      return;
    }
  }
  // Window elapsed without detection: restart accumulation.
  seen_ = 0;
  for (int p = 0; p < 3; ++p) {
    sum_[p] = 0.0;
    abs_sum_[p] = 0.0;
  }
}

}  // namespace ev::motor

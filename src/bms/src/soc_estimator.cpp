#include "ev/bms/soc_estimator.h"

#include <stdexcept>

#include "ev/util/math.h"

namespace ev::bms {

VoltageCorrectedEstimator::VoltageCorrectedEstimator(
    double capacity_ah, double initial_soc,
    std::shared_ptr<const battery::OcvCurve> curve, double r0_ohm, double gain)
    : capacity_ah_(capacity_ah),
      soc_(util::clamp(initial_soc, 0.0, 1.0)),
      curve_(std::move(curve)),
      r0_ohm_(r0_ohm),
      gain_(gain) {
  if (capacity_ah <= 0.0)
    throw std::invalid_argument("VoltageCorrectedEstimator: capacity must be positive");
  if (!curve_) throw std::invalid_argument("VoltageCorrectedEstimator: curve is null");
}

void VoltageCorrectedEstimator::update(double current_a, double voltage_v, double dt_s) {
  soc_ = voltage_corrected_update(soc_, current_a, voltage_v, dt_s, capacity_ah_, *curve_,
                                  r0_ohm_, gain_);
}

}  // namespace ev::bms

/// \file soc_estimator.h
/// State-of-charge estimation from sensor data: the plain coulomb-counting
/// update law (drifts with current-sensor bias) and a voltage-corrected
/// observer that feeds the terminal-voltage residual back through the OCV
/// slope — the standard industrial remedy for drift.
#pragma once

#include <memory>

#include "ev/battery/ocv_curve.h"
#include "ev/util/math.h"

namespace ev::bms {

/// Coulomb-counting update law: \p soc advanced by \p dt_s of sensed cell
/// current \p current_a (positive = discharge) against the believed
/// \p capacity_ah, clamped into [0, 1].
[[nodiscard]] inline double coulomb_counting_update(double soc, double current_a,
                                                    double dt_s, double capacity_ah) noexcept {
  return util::clamp(soc - current_a * dt_s / (capacity_ah * 3600.0), 0.0, 1.0);
}

/// Voltage-corrected update law: the coulomb-counting prediction, then
/// \p gain times the residual between the OCV implied by the sensed terminal
/// voltage \p voltage_v (backed out through the believed \p r0_ohm) and the
/// OCV \p curve gives for the prediction, clamped into [0, 1].
[[nodiscard]] inline double voltage_corrected_update(double soc, double current_a,
                                                     double voltage_v, double dt_s,
                                                     double capacity_ah,
                                                     const battery::OcvCurve& curve,
                                                     double r0_ohm, double gain) noexcept {
  soc -= current_a * dt_s / (capacity_ah * 3600.0);
  const double ocv_measured = voltage_v + current_a * r0_ohm;
  const double residual_v = ocv_measured - curve.voltage(soc);
  soc += gain * residual_v * dt_s;
  return util::clamp(soc, 0.0, 1.0);
}

/// Coulomb counting with proportional output-injection from the voltage
/// residual (a one-state Luenberger observer linearized through the OCV
/// slope). Gain trades noise sensitivity against bias-drift correction.
class VoltageCorrectedEstimator {
 public:
  /// \p curve must outlive the estimator. \p r0_ohm is the believed series
  /// resistance used to back out OCV from the loaded terminal voltage.
  /// \p gain is the observer gain in SoC per volt of residual per second.
  VoltageCorrectedEstimator(double capacity_ah, double initial_soc,
                            std::shared_ptr<const battery::OcvCurve> curve,
                            double r0_ohm, double gain = 0.02);

  /// Advances the estimate by \p dt_s given the sensed cell current
  /// \p current_a (positive = discharge) and sensed terminal voltage
  /// \p voltage_v.
  void update(double current_a, double voltage_v, double dt_s);
  /// Current estimate in [0, 1].
  [[nodiscard]] double soc() const noexcept { return soc_; }

 private:
  double capacity_ah_;
  double soc_;
  std::shared_ptr<const battery::OcvCurve> curve_;
  double r0_ohm_;
  double gain_;
};

}  // namespace ev::bms

/// \file soc_estimator.h
/// State-of-charge estimation from sensor data. Two estimators are provided:
/// plain coulomb counting (drifts with current-sensor bias) and a
/// voltage-corrected observer that feeds the terminal-voltage residual back
/// through the OCV slope — the standard industrial remedy for drift.
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

/// Interface of a per-cell SoC estimator. update() is called once per BMS
/// period with that period's sensed current and voltage.
class SocEstimator {
 public:
  virtual ~SocEstimator() = default;

  /// Advances the estimate by \p dt_s given the sensed cell current
  /// \p current_a (positive = discharge) and sensed terminal voltage
  /// \p voltage_v.
  virtual void update(double current_a, double voltage_v, double dt_s) = 0;

  /// Current estimate in [0, 1].
  [[nodiscard]] virtual double soc() const noexcept = 0;

  /// Resets the estimate to \p soc (e.g. after a rest-period OCV relaxation).
  virtual void reset(double soc) noexcept = 0;
};

/// Pure coulomb counting: soc -= I*dt / Q. Exact with a perfect sensor,
/// drifts linearly in time under sensor bias.
class CoulombCountingEstimator final : public SocEstimator {
 public:
  /// \p capacity_ah is the believed cell capacity; \p initial_soc the start
  /// estimate.
  CoulombCountingEstimator(double capacity_ah, double initial_soc);

  void update(double current_a, double voltage_v, double dt_s) override;
  [[nodiscard]] double soc() const noexcept override { return soc_; }
  void reset(double soc) noexcept override;

 private:
  double capacity_ah_;
  double soc_;
};

/// Coulomb counting with proportional output-injection from the voltage
/// residual (a one-state Luenberger observer linearized through the OCV
/// slope). Gain trades noise sensitivity against bias-drift correction.
class VoltageCorrectedEstimator final : public SocEstimator {
 public:
  /// \p curve must outlive the estimator. \p r0_ohm is the believed series
  /// resistance used to back out OCV from the loaded terminal voltage.
  /// \p gain is the observer gain in SoC per volt of residual per second.
  VoltageCorrectedEstimator(double capacity_ah, double initial_soc,
                            std::shared_ptr<const battery::OcvCurve> curve,
                            double r0_ohm, double gain = 0.02);

  void update(double current_a, double voltage_v, double dt_s) override;
  [[nodiscard]] double soc() const noexcept override { return soc_; }
  void reset(double soc) noexcept override;

 private:
  double capacity_ah_;
  double soc_;
  std::shared_ptr<const battery::OcvCurve> curve_;
  double r0_ohm_;
  double gain_;
};

}  // namespace ev::bms

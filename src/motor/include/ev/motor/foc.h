/// \file foc.h
/// Field-oriented control: cascaded speed and dq-current PI loops producing
/// the stator voltage reference the space-vector modulator realizes. This is
/// the "efficient and reliable control of electric motors" layer of the
/// paper's Section 2, and the control task whose post-fault PWM sequences
/// must be recomputed in real time.
#pragma once

#include "ev/motor/pmsm.h"
#include "ev/motor/transforms.h"

namespace ev::motor {

/// Discrete PI regulator with output clamping and back-calculation
/// anti-windup.
class PiController {
 public:
  /// \p kp proportional gain, \p ki integral gain per second, output limited
  /// to [-limit, limit].
  PiController(double kp, double ki, double limit) noexcept
      : kp_(kp), ki_(ki), limit_(limit) {}

  /// Advances by \p dt_s with tracking error \p error; returns the clamped
  /// actuation.
  [[nodiscard]] double update(double error, double dt_s) noexcept;

  /// Clears the integrator.
  void reset() noexcept { integral_ = 0.0; }
  /// Current integrator state (exposed for tests).
  [[nodiscard]] double integral() const noexcept { return integral_; }

 private:
  double kp_;
  double ki_;
  double limit_;
  double integral_ = 0.0;
};

/// FOC tuning and limits.
struct FocConfig {
  double speed_kp = 8.0;        ///< Speed loop gain [A per rad/s].
  double speed_ki = 20.0;       ///< Speed loop integral gain.
  double current_kp = 1.2;      ///< Current loop gain [V/A].
  double current_ki = 900.0;    ///< Current loop integral gain.
  double max_phase_current_a = 300.0;  ///< Current (torque) limit.
  double vdc = 400.0;           ///< DC-link voltage for the voltage limit.
};

/// Cascaded FOC controller: speed PI -> i_q reference (i_d ref = 0 for a
/// surface-mount machine), current PIs -> v_dq, decoupling feed-forward,
/// inverse Park to the stationary frame.
class FocController {
 public:
  explicit FocController(FocConfig config, PmsmParameters machine = {}) noexcept;

  /// One control period: computes the stationary-frame voltage reference
  /// from the speed command and the measured currents/angle/speed.
  [[nodiscard]] AlphaBeta update(double speed_ref_rad_s, double speed_rad_s,
                                 const Dq& i_meas, double theta_e, double dt_s) noexcept;

  /// Torque-mode variant: commands \p iq_ref directly (used by the
  /// powertrain torque path) instead of closing the speed loop.
  [[nodiscard]] AlphaBeta update_torque(double iq_ref, const Dq& i_meas, double theta_e,
                                        double speed_rad_s, double dt_s) noexcept;

  /// Resets all integrators (used at fault reconfiguration).
  void reset() noexcept;

 private:
  FocConfig config_;
  PmsmParameters machine_;
  PiController speed_pi_;
  PiController id_pi_;
  PiController iq_pi_;
  double last_iq_ref_ = 0.0;
};

}  // namespace ev::motor

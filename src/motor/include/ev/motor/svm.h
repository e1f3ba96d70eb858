/// \file svm.h
/// Space-vector modulation ([5] in the paper): converts a demanded stator
/// voltage vector into per-leg duty cycles such that the six IGBTs of the
/// inverter synthesize three sinusoidal, 2*pi/3-shifted waveforms (Fig. 3).
/// Implemented as min-max common-mode injection, which is mathematically
/// equivalent to classic sector-based SVPWM and extends the linear range to
/// Vdc/sqrt(3).
#pragma once

#include "ev/motor/transforms.h"

namespace ev::motor {

/// Duty cycles of the three inverter legs, each in [0, 1].
struct Duties {
  double a = 0.5;
  double b = 0.5;
  double c = 0.5;
};

/// Space-vector modulator for the full six-switch (B6) inverter.
class SvmModulator {
 public:
  /// Computes leg duties realizing stationary-frame voltage \p v_ref with dc
  /// link voltage \p vdc. Saturates at the SVM linear-region hexagon
  /// boundary (|v| <= vdc/sqrt(3)) by amplitude scaling.
  [[nodiscard]] static Duties modulate(const AlphaBeta& v_ref, double vdc) noexcept;

  /// Maximum phase-voltage amplitude realizable in the linear region [V].
  [[nodiscard]] static double max_amplitude(double vdc) noexcept;
};

/// Four-switch (B4) modulator used after an IGBT open fault: the faulty leg
/// is isolated and its phase is tied to the dc-link midpoint, so only the
/// two healthy legs switch. Line-to-line voltages are preserved by shifting
/// the common-mode reference, at the cost of half the dc-link utilization —
/// the classic post-fault topology the paper's fault-tolerant control
/// strategy targets.
class FourSwitchModulator {
 public:
  /// \p faulty_phase: 0 = a, 1 = b, 2 = c.
  explicit FourSwitchModulator(int faulty_phase);

  /// Computes duties for the two healthy legs; the faulty leg's duty is
  /// reported as exactly 0.5 (midpoint clamp, not switched).
  [[nodiscard]] Duties modulate(const AlphaBeta& v_ref, double vdc) const noexcept;

  /// The isolated phase index.
  [[nodiscard]] int faulty_phase() const noexcept { return faulty_phase_; }

 private:
  int faulty_phase_;
};

}  // namespace ev::motor

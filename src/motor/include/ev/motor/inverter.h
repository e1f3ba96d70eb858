/// \file inverter.h
/// Two-level six-IGBT voltage-source inverter (Fig. 3) with per-switch
/// open-circuit fault injection. Produces the switched phase voltages seen
/// by the machine given the commanded leg states, accounting for the
/// freewheeling-diode paths that determine post-fault behaviour.
#pragma once

#include <array>

#include "ev/motor/svm.h"
#include "ev/motor/transforms.h"

namespace ev::motor {

/// The six controllable switches: upper (sa, sb, sc) and lower
/// (sa_bar, sb_bar, sc_bar) of each leg.
enum class Igbt { kUpperA = 0, kLowerA, kUpperB, kLowerB, kUpperC, kLowerC };

/// Commanded state of the three legs: true = upper switch on (leg tied high),
/// false = lower switch on. Dead time is neglected at this modelling level.
struct LegStates {
  bool a = false;
  bool b = false;
  bool c = false;
};

/// Switched inverter with dc link \p vdc. Open-circuit faults may be
/// injected per IGBT; a faulty commanded switch does not conduct and the
/// leg output is determined by the antiparallel diodes and the phase
/// current direction — the mechanism that drives the motor "into
/// unpredicted operating modes" per the paper.
class Inverter {
 public:
  explicit Inverter(double vdc = 400.0) noexcept : vdc_(vdc) {}

  /// Injects (true) or clears (false) an open-circuit fault on \p sw.
  void set_open_fault(Igbt sw, bool faulty) noexcept;
  /// True when \p sw has an injected open fault.
  [[nodiscard]] bool has_open_fault(Igbt sw) const noexcept;
  /// True when any switch is faulty.
  [[nodiscard]] bool any_fault() const noexcept;

  /// Isolates a whole leg (both switches off permanently) and ties its
  /// phase to the dc-link midpoint — the post-fault B4 reconfiguration.
  void isolate_leg_to_midpoint(int phase) noexcept;
  /// True when \p phase (0..2) has been tied to the midpoint.
  [[nodiscard]] bool leg_isolated(int phase) const noexcept { return midpoint_[unsigned(phase)]; }

  /// Leg output voltages (relative to the negative rail) for commanded
  /// states \p cmd with instantaneous phase currents \p i (needed to resolve
  /// diode conduction under faults).
  [[nodiscard]] Abc leg_voltages(const LegStates& cmd, const Abc& i) const noexcept;

  /// Phase-to-neutral voltages for an isolated-neutral machine:
  /// v_xn = v_x - (v_a + v_b + v_c)/3.
  [[nodiscard]] Abc phase_voltages(const LegStates& cmd, const Abc& i) const noexcept;

  /// Converts center-aligned-carrier comparison of \p duties at carrier
  /// position \p carrier (0..1 within the PWM period) into leg states.
  [[nodiscard]] static LegStates compare_carrier(const Duties& duties,
                                                 double carrier) noexcept;

  /// DC-link voltage [V].
  [[nodiscard]] double vdc() const noexcept { return vdc_; }

 private:
  [[nodiscard]] double leg_voltage(bool cmd_high, bool upper_ok, bool lower_ok, bool tied_mid,
                                   double current) const noexcept;

  double vdc_;
  std::array<bool, 6> open_fault_{};  // indexed by Igbt
  std::array<bool, 3> midpoint_{};    // leg tied to Vdc/2
};

}  // namespace ev::motor

#include "ev/motor/svm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ev/util/math.h"

namespace ev::motor {

double SvmModulator::max_amplitude(double vdc) noexcept { return vdc / std::sqrt(3.0); }

Duties SvmModulator::modulate(const AlphaBeta& v_ref, double vdc) noexcept {
  AlphaBeta v = v_ref;
  // Amplitude saturation at the linear-region boundary.
  const double mag = std::hypot(v.alpha, v.beta);
  const double vmax = max_amplitude(vdc);
  if (mag > vmax && mag > 0.0) {
    const double k = vmax / mag;
    v.alpha *= k;
    v.beta *= k;
  }
  const Abc ph = inverse_clarke(v);
  // Min-max (symmetric) common-mode injection: centres the active vectors in
  // the carrier period, equivalent to 7-segment SVPWM.
  const double vmax_ph = std::max({ph.a, ph.b, ph.c});
  const double vmin_ph = std::min({ph.a, ph.b, ph.c});
  const double offset = -(vmax_ph + vmin_ph) / 2.0;
  Duties d;
  d.a = util::clamp(0.5 + (ph.a + offset) / vdc, 0.0, 1.0);
  d.b = util::clamp(0.5 + (ph.b + offset) / vdc, 0.0, 1.0);
  d.c = util::clamp(0.5 + (ph.c + offset) / vdc, 0.0, 1.0);
  return d;
}

FourSwitchModulator::FourSwitchModulator(int faulty_phase) : faulty_phase_(faulty_phase) {
  if (faulty_phase < 0 || faulty_phase > 2)
    throw std::invalid_argument("FourSwitchModulator: phase must be 0, 1, or 2");
}

Duties FourSwitchModulator::modulate(const AlphaBeta& v_ref, double vdc) const noexcept {
  const Abc ph = inverse_clarke(v_ref);
  const double faulty_v = faulty_phase_ == 0 ? ph.a : (faulty_phase_ == 1 ? ph.b : ph.c);
  // Shift all phase references so the faulty phase sits at the dc midpoint;
  // line-to-line voltages (all the motor sees) are unchanged by the shift.
  auto duty_of = [&](double v_phase) {
    return util::clamp(0.5 + (v_phase - faulty_v) / vdc, 0.0, 1.0);
  };
  Duties d;
  d.a = faulty_phase_ == 0 ? 0.5 : duty_of(ph.a);
  d.b = faulty_phase_ == 1 ? 0.5 : duty_of(ph.b);
  d.c = faulty_phase_ == 2 ? 0.5 : duty_of(ph.c);
  return d;
}

}  // namespace ev::motor

#include "ev/motor/drive.h"

#include <cmath>

#include "ev/util/math.h"

namespace ev::motor {

MotorDrive::MotorDrive(DriveConfig config)
    : config_(config),
      pmsm_(config.machine),
      inverter_(config.foc.vdc),
      controller_(config.foc, config.machine) {}

void MotorDrive::inject_open_fault(Igbt sw) {
  inverter_.set_open_fault(sw, true);
  if (mode_ == DriveMode::kNormal) {
    mode_ = DriveMode::kFaulted;
    fault_time_s_ = time_s_;
  }
}

void MotorDrive::clear_recording() noexcept {
  record_ia_.clear();
  record_torque_.clear();
}

void MotorDrive::step(double speed_ref_rad_s, double load_torque_nm) {
  const double dt = period_s();
  const AlphaBeta v_ref =
      controller_.update(speed_ref_rad_s, pmsm_.speed_rad_s(), pmsm_.currents_dq(),
                         pmsm_.electrical_angle(), dt);
  run_period(v_ref, load_torque_nm);
}

void MotorDrive::run_period(const AlphaBeta& v_ref, double load_torque_nm) {
  const Duties duties = b4_ ? b4_->modulate(v_ref, inverter_.vdc())
                            : SvmModulator::modulate(v_ref, inverter_.vdc());
  const int n = config_.substeps_per_period;
  const double dt_sub = period_s() / n;
  for (int k = 0; k < n; ++k) {
    const double carrier = (static_cast<double>(k) + 0.5) / n;
    const Abc i = pmsm_.currents();
    const LegStates states = Inverter::compare_carrier(duties, carrier);
    const Abc v = inverter_.phase_voltages(states, i);
    pmsm_.step(v, load_torque_nm, dt_sub);
    if (recording_) record_ia_.push_back(i.a);
  }
  if (recording_) record_torque_.push_back(pmsm_.torque_nm());
  time_s_ += period_s();

  if (config_.fault_tolerant) {
    detector_.sample(pmsm_.currents());
    handle_fault_response();
  }
}

void MotorDrive::handle_fault_response() {
  if (mode_ != DriveMode::kFaulted) return;
  const auto diagnosis = detector_.diagnose();
  if (!diagnosis) return;
  // Reconfigure: isolate the diagnosed leg onto the dc-link midpoint and
  // switch modulation to the four-switch topology; the controller restarts
  // its integrators to recompute the post-fault operating point.
  inverter_.isolate_leg_to_midpoint(diagnosis->phase);
  b4_.emplace(diagnosis->phase);
  controller_.reset();
  mode_ = DriveMode::kReconfigured;
  if (fault_time_s_) detection_latency_s_ = time_s_ - *fault_time_s_;
}

double harmonic_amplitude(std::span<const double> samples, double sample_rate_hz,
                          double fundamental_hz, int harmonic) {
  if (samples.empty() || harmonic < 1) return 0.0;
  // Goertzel algorithm at the exact (possibly non-bin) target frequency.
  const double freq = fundamental_hz * harmonic;
  const double omega = util::kTwoPi * freq / sample_rate_hz;
  const double coeff = 2.0 * std::cos(omega);
  double s_prev = 0.0;
  double s_prev2 = 0.0;
  for (double x : samples) {
    const double s = x + coeff * s_prev - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  const double real = s_prev - s_prev2 * std::cos(omega);
  const double imag = s_prev2 * std::sin(omega);
  const double n = static_cast<double>(samples.size());
  return 2.0 * std::sqrt(real * real + imag * imag) / n;
}

double total_harmonic_distortion(std::span<const double> samples, double sample_rate_hz,
                                 double fundamental_hz, int max_harmonic) {
  const double a1 = harmonic_amplitude(samples, sample_rate_hz, fundamental_hz, 1);
  if (a1 <= 0.0) return 0.0;
  double acc = 0.0;
  for (int h = 2; h <= max_harmonic; ++h) {
    const double ah = harmonic_amplitude(samples, sample_rate_hz, fundamental_hz, h);
    acc += ah * ah;
  }
  return std::sqrt(acc) / a1;
}

}  // namespace ev::motor

/// \file drive.h
/// Complete motor-drive assembly: FOC controller + space-vector modulator +
/// switched six-IGBT inverter + PMSM, with fault injection, online fault
/// detection, and post-fault reconfiguration to the four-switch topology.
/// This is the executable version of the paper's Fig. 3 plus its
/// fault-tolerant control discussion.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "ev/motor/fault.h"
#include "ev/motor/foc.h"
#include "ev/motor/inverter.h"
#include "ev/motor/pmsm.h"
#include "ev/motor/svm.h"

namespace ev::motor {

/// Drive assembly parameters.
struct DriveConfig {
  PmsmParameters machine;
  FocConfig foc;
  double pwm_frequency_hz = 10000.0;  ///< Control and switching frequency.
  int substeps_per_period = 10;       ///< Switched-waveform resolution per period.
  bool fault_tolerant = true;         ///< Enable detection + reconfiguration.
};

/// Operating mode of the drive.
enum class DriveMode {
  kNormal,        ///< Six-switch operation, no fault present.
  kFaulted,       ///< Fault present but not yet detected/handled.
  kReconfigured,  ///< Four-switch post-fault operation.
};

/// Closed-loop motor drive stepped one PWM period at a time.
class MotorDrive {
 public:
  explicit MotorDrive(DriveConfig config = {});

  /// Advances one PWM period in speed mode: \p speed_ref_rad_s mechanical
  /// speed command against \p load_torque_nm shaft load.
  void step(double speed_ref_rad_s, double load_torque_nm);

  /// Injects an open-circuit fault on \p sw (takes effect immediately).
  void inject_open_fault(Igbt sw);

  /// The machine model (read access for measurements).
  [[nodiscard]] const Pmsm& machine() const noexcept { return pmsm_; }
  /// The inverter model.
  [[nodiscard]] const Inverter& inverter() const noexcept { return inverter_; }
  /// Elapsed drive time [s].
  [[nodiscard]] double time_s() const noexcept { return time_s_; }
  /// Current operating mode.
  [[nodiscard]] DriveMode mode() const noexcept { return mode_; }
  /// Control/PWM period [s].
  [[nodiscard]] double period_s() const noexcept { return 1.0 / config_.pwm_frequency_hz; }
  /// Time from fault injection to detection, once detected [s].
  [[nodiscard]] std::optional<double> detection_latency_s() const noexcept {
    return detection_latency_s_;
  }
  /// Phase-a current samples recorded each sub-step since recording started.
  [[nodiscard]] const std::vector<double>& recorded_current_a() const noexcept {
    return record_ia_;
  }
  /// Torque samples recorded once per PWM period.
  [[nodiscard]] const std::vector<double>& recorded_torque() const noexcept {
    return record_torque_;
  }
  /// Starts (true) or stops (false) waveform recording.
  void set_recording(bool on) noexcept { recording_ = on; }
  /// Clears recorded waveforms.
  void clear_recording() noexcept;
  /// Sub-step sample rate of the recordings [Hz].
  [[nodiscard]] double record_rate_hz() const noexcept {
    return config_.pwm_frequency_hz * config_.substeps_per_period;
  }

 private:
  void run_period(const AlphaBeta& v_ref, double load_torque_nm);
  void handle_fault_response();

  DriveConfig config_;
  Pmsm pmsm_;
  Inverter inverter_;
  FocController controller_;
  OpenSwitchDetector detector_;
  std::optional<FourSwitchModulator> b4_;
  DriveMode mode_ = DriveMode::kNormal;
  double time_s_ = 0.0;
  std::optional<double> fault_time_s_;
  std::optional<double> detection_latency_s_;
  bool recording_ = false;
  std::vector<double> record_ia_;
  std::vector<double> record_torque_;
};

/// Amplitude of the \p harmonic-th multiple of \p fundamental_hz in
/// \p samples taken at \p sample_rate_hz (Goertzel single-bin DFT).
[[nodiscard]] double harmonic_amplitude(std::span<const double> samples,
                                        double sample_rate_hz, double fundamental_hz,
                                        int harmonic);

/// Total harmonic distortion up to \p max_harmonic relative to the
/// fundamental: sqrt(sum h>=2 A_h^2) / A_1.
[[nodiscard]] double total_harmonic_distortion(std::span<const double> samples,
                                               double sample_rate_hz,
                                               double fundamental_hz,
                                               int max_harmonic = 20);

}  // namespace ev::motor

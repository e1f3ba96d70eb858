// Experiment E3 (paper Fig. 3 + Section 2 "Electric Motor"): space-vector
// modulated PMSM drive. Verifies the figure's claim (three sinusoidal
// line voltages phase-shifted by 2*pi/3), then quantifies the open-IGBT
// fault story: waveform distortion, detection latency, and post-fault
// recovery with the four-switch reconfiguration.
#include <cmath>
#include <cstdio>

#include "ev/motor/drive.h"
#include "ev/util/math.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::motor;
using ev::util::kTwoPi;

struct WaveMetrics {
  double thd = 0.0;
  double torque_ripple = 0.0;
  double fundamental_a = 0.0;
};

WaveMetrics measure(MotorDrive& drive, double speed_ref, double load, int periods) {
  drive.clear_recording();
  drive.set_recording(true);
  for (int k = 0; k < periods; ++k) drive.step(speed_ref, load);
  drive.set_recording(false);
  WaveMetrics m;
  const double fund = drive.machine().electrical_speed() / kTwoPi;
  m.thd = total_harmonic_distortion(drive.recorded_current_a(), drive.record_rate_hz(),
                                    fund);
  m.fundamental_a =
      harmonic_amplitude(drive.recorded_current_a(), drive.record_rate_hz(), fund, 1);
  double lo = 1e18, hi = -1e18, sum = 0.0;
  for (double t : drive.recorded_torque()) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
    sum += t;
  }
  m.torque_ripple = (hi - lo) / std::max(sum / drive.recorded_torque().size(), 1.0);
  return m;
}

void run_experiment() {
  std::puts("E3 — PMSM + SVM inverter (Fig. 3) with IGBT open-fault tolerance\n");

  // --- Fig. 3 property: 2*pi/3 phase-shifted sinusoidal currents -----------
  MotorDrive drive;
  for (int k = 0; k < 30000; ++k) drive.step(200.0, 30.0);
  // Phase relationship via correlation of phase currents at steady state.
  drive.clear_recording();
  drive.set_recording(true);
  std::vector<double> ia, ib;
  for (int k = 0; k < 4000; ++k) {
    drive.step(200.0, 30.0);
    const Abc i = drive.machine().currents();
    ia.push_back(i.a);
    ib.push_back(i.b);
  }
  drive.set_recording(false);
  // cos of phase difference between a and b from normalized dot products.
  double aa = 0, bb = 0, ab = 0;
  for (std::size_t k = 0; k < ia.size(); ++k) {
    aa += ia[k] * ia[k];
    bb += ib[k] * ib[k];
    ab += ia[k] * ib[k];
  }
  const double cos_shift = ab / std::sqrt(aa * bb);
  std::printf("phase a/b correlation cos(delta) = %.3f   (ideal -0.5 for 2*pi/3 shift)\n\n",
              cos_shift);

  // --- fault sequence --------------------------------------------------------
  const WaveMetrics healthy = measure(drive, 200.0, 30.0, 8000);

  DriveConfig no_ft;
  no_ft.fault_tolerant = false;
  MotorDrive blind(no_ft);
  for (int k = 0; k < 30000; ++k) blind.step(200.0, 30.0);
  blind.inject_open_fault(Igbt::kUpperA);
  const WaveMetrics faulted = measure(blind, 200.0, 30.0, 8000);

  drive.inject_open_fault(Igbt::kUpperA);
  for (int k = 0; k < 60000 && drive.mode() != DriveMode::kReconfigured; ++k)
    drive.step(200.0, 30.0);
  for (int k = 0; k < 40000; ++k) drive.step(200.0, 30.0);
  const WaveMetrics recovered = measure(drive, 200.0, 30.0, 8000);

  ev::util::Table table("waveform quality across the fault sequence (200 rad/s, 30 Nm)",
                        {"condition", "current THD", "torque ripple",
                         "fundamental current"});
  table.add_row({"healthy 6-switch SVM", ev::util::fmt_pct(healthy.thd),
                 ev::util::fmt_pct(healthy.torque_ripple),
                 ev::util::fmt(healthy.fundamental_a, 1) + " A"});
  table.add_row({"open IGBT, no reaction", ev::util::fmt_pct(faulted.thd),
                 ev::util::fmt_pct(faulted.torque_ripple),
                 ev::util::fmt(faulted.fundamental_a, 1) + " A"});
  table.add_row({"reconfigured 4-switch", ev::util::fmt_pct(recovered.thd),
                 ev::util::fmt_pct(recovered.torque_ripple),
                 ev::util::fmt(recovered.fundamental_a, 1) + " A"});
  table.print();

  std::printf("fault detection latency: %.2f ms; speed after recovery: %.1f rad/s "
              "(command 200.0)\n",
              drive.detection_latency_s().value_or(-1) * 1e3,
              drive.machine().speed_rad_s());
  evbench::set_gauge("e3.recovered.thd", recovered.thd);
  evbench::set_gauge("e3.recovered.torque_ripple", recovered.torque_ripple);
  std::puts("expected shape: fault massively distorts current/torque; the "
            "reconfigured drive restores near-sinusoidal operation at reduced "
            "dc-link utilization.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e3_motor_control");
}

// Unit tests for the motor drive: reference-frame transforms, the PMSM
// model, space-vector modulation, the switched inverter with fault
// injection, FOC, the fault detector, and the closed-loop drive.
#include <gtest/gtest.h>

#include <cmath>

#include "ev/motor/drive.h"
#include "ev/motor/fault.h"
#include "ev/motor/foc.h"
#include "ev/motor/inverter.h"
#include "ev/motor/pmsm.h"
#include "ev/motor/svm.h"
#include "ev/motor/transforms.h"
#include "ev/util/math.h"

namespace {

using namespace ev::motor;
using ev::util::kPi;
using ev::util::kTwoPi;

// ---------------------------------------------------------- transforms ----

class TransformRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(TransformRoundTrip, ClarkeParkInverse) {
  const double theta = GetParam();
  const Dq dq{12.5, -7.25};
  const AlphaBeta ab = inverse_park(dq, theta);
  const Dq back = park(ab, theta);
  EXPECT_NEAR(back.d, dq.d, 1e-9);
  EXPECT_NEAR(back.q, dq.q, 1e-9);

  const Abc abc = inverse_clarke(ab);
  EXPECT_NEAR(abc.a + abc.b + abc.c, 0.0, 1e-9);  // balanced
  const AlphaBeta ab2 = clarke(abc);
  EXPECT_NEAR(ab2.alpha, ab.alpha, 1e-9);
  EXPECT_NEAR(ab2.beta, ab.beta, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Angles, TransformRoundTrip,
                         ::testing::Values(0.0, 0.5, kPi / 3, kPi, 1.5 * kPi,
                                           kTwoPi - 0.01));

TEST(Transforms, ClarkeAmplitudeInvariant) {
  // Balanced three-phase set with amplitude 10 -> alpha-beta magnitude 10.
  for (double theta = 0.0; theta < kTwoPi; theta += 0.37) {
    const Abc abc{10.0 * std::cos(theta), 10.0 * std::cos(theta - 2.0 * kPi / 3.0),
                  10.0 * std::cos(theta + 2.0 * kPi / 3.0)};
    const AlphaBeta ab = clarke(abc);
    EXPECT_NEAR(std::hypot(ab.alpha, ab.beta), 10.0, 1e-9);
  }
}

// ---------------------------------------------------------------- pmsm ----

TEST(Pmsm, TorqueEquation) {
  Pmsm m;
  // Inject dq currents indirectly: with zero speed, constant v_q builds i_q.
  const double kt = 1.5 * m.params().pole_pairs * m.params().flux_linkage_wb;
  EXPECT_GT(kt, 0.0);
  EXPECT_DOUBLE_EQ(m.torque_nm(), 0.0);  // no current, no torque
}

TEST(Pmsm, AcceleratesUnderQVoltage) {
  Pmsm m;
  // Apply a small stationary-frame voltage aligned with q for a while.
  for (int i = 0; i < 20000; ++i) {
    const AlphaBeta v = inverse_park(Dq{0.0, 5.0}, m.electrical_angle());
    m.step(inverse_clarke(v), 0.0, 1e-5);
  }
  EXPECT_GT(m.speed_rad_s(), 1.0);
}

TEST(Pmsm, LoadTorqueDecelerates) {
  Pmsm m;
  m.set_speed(100.0);
  for (int i = 0; i < 10000; ++i) m.step(Abc{}, 20.0, 1e-5);
  EXPECT_LT(m.speed_rad_s(), 100.0);
}

TEST(Pmsm, ElectricalAngleWraps) {
  Pmsm m;
  m.set_speed(500.0);
  for (int i = 0; i < 100000; ++i) m.step(Abc{}, 0.0, 1e-5);
  EXPECT_GE(m.electrical_angle(), 0.0);
  EXPECT_LT(m.electrical_angle(), kTwoPi);
}

TEST(Pmsm, ElectricalSpeedIsPolePairsTimesMechanical) {
  Pmsm m;
  m.set_speed(100.0);
  EXPECT_DOUBLE_EQ(m.electrical_speed(), 100.0 * m.params().pole_pairs);
}

// ----------------------------------------------------------------- svm ----

TEST(Svm, DutiesWithinBounds) {
  const double vdc = 400.0;
  for (double theta = 0.0; theta < kTwoPi; theta += 0.1) {
    const double amp = SvmModulator::max_amplitude(vdc) * 0.95;
    const AlphaBeta v{amp * std::cos(theta), amp * std::sin(theta)};
    const Duties d = SvmModulator::modulate(v, vdc);
    EXPECT_GE(d.a, 0.0);
    EXPECT_LE(d.a, 1.0);
    EXPECT_GE(d.b, 0.0);
    EXPECT_LE(d.b, 1.0);
    EXPECT_GE(d.c, 0.0);
    EXPECT_LE(d.c, 1.0);
  }
}

TEST(Svm, ZeroVoltageGivesCenteredDuties) {
  const Duties d = SvmModulator::modulate(AlphaBeta{0.0, 0.0}, 400.0);
  EXPECT_NEAR(d.a, 0.5, 1e-12);
  EXPECT_NEAR(d.b, 0.5, 1e-12);
  EXPECT_NEAR(d.c, 0.5, 1e-12);
}

TEST(Svm, LinearRegionReproducesReference) {
  // Average phase voltage from the duties must equal the reference (up to
  // common mode, which the line-line difference removes).
  const double vdc = 400.0;
  const AlphaBeta v{100.0, 50.0};
  const Duties d = SvmModulator::modulate(v, vdc);
  const Abc ph = inverse_clarke(v);
  const double vab_ref = ph.a - ph.b;
  const double vab_avg = (d.a - d.b) * vdc;
  EXPECT_NEAR(vab_avg, vab_ref, 1e-9);
}

TEST(Svm, SaturatesBeyondHexagon) {
  const double vdc = 400.0;
  const AlphaBeta v{10.0 * vdc, 0.0};
  const Duties d = SvmModulator::modulate(v, vdc);
  EXPECT_GE(d.a, 0.0);
  EXPECT_LE(d.a, 1.0);
}

TEST(FourSwitch, PreservesLineToLineVoltages) {
  const double vdc = 400.0;
  const FourSwitchModulator b4(0);  // phase a faulty, tied to midpoint
  const AlphaBeta v{60.0, 30.0};
  const Duties d = b4.modulate(v, vdc);
  EXPECT_DOUBLE_EQ(d.a, 0.5);
  const Abc ph = inverse_clarke(v);
  // v_b - v_a reproduced by the b-leg duty against the midpoint.
  EXPECT_NEAR((d.b - 0.5) * vdc, ph.b - ph.a, 1e-9);
  EXPECT_NEAR((d.c - 0.5) * vdc, ph.c - ph.a, 1e-9);
}

TEST(FourSwitch, RejectsBadPhase) {
  EXPECT_THROW(FourSwitchModulator(3), std::invalid_argument);
  EXPECT_THROW(FourSwitchModulator(-1), std::invalid_argument);
}

// ------------------------------------------------------------- inverter ----

TEST(Inverter, HealthyLegsFollowCommands) {
  Inverter inv(400.0);
  const Abc v = inv.leg_voltages(LegStates{true, false, true}, Abc{1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(v.a, 400.0);
  EXPECT_DOUBLE_EQ(v.b, 0.0);
  EXPECT_DOUBLE_EQ(v.c, 400.0);
}

TEST(Inverter, OpenUpperFaultClampsByCurrentDirection) {
  Inverter inv(400.0);
  inv.set_open_fault(Igbt::kUpperA, true);
  // Commanded high, positive current -> lower diode, 0 V.
  EXPECT_DOUBLE_EQ(inv.leg_voltages(LegStates{true, false, false}, Abc{5.0, 0, 0}).a, 0.0);
  // Commanded high, negative current -> upper diode, Vdc.
  EXPECT_DOUBLE_EQ(inv.leg_voltages(LegStates{true, false, false}, Abc{-5.0, 0, 0}).a,
                   400.0);
  // Lower switch still works.
  EXPECT_DOUBLE_EQ(inv.leg_voltages(LegStates{false, false, false}, Abc{5.0, 0, 0}).a, 0.0);
}

TEST(Inverter, OpenLowerFaultClampsByCurrentDirection) {
  Inverter inv(400.0);
  inv.set_open_fault(Igbt::kLowerB, true);
  EXPECT_DOUBLE_EQ(inv.leg_voltages(LegStates{false, false, false}, Abc{0, 5.0, 0}).b, 0.0);
  EXPECT_DOUBLE_EQ(inv.leg_voltages(LegStates{false, false, false}, Abc{0, -5.0, 0}).b,
                   400.0);
}

TEST(Inverter, MidpointIsolationOverridesSwitching) {
  Inverter inv(400.0);
  inv.isolate_leg_to_midpoint(2);
  EXPECT_TRUE(inv.leg_isolated(2));
  EXPECT_DOUBLE_EQ(inv.leg_voltages(LegStates{false, false, true}, Abc{}).c, 200.0);
  EXPECT_DOUBLE_EQ(inv.leg_voltages(LegStates{false, false, false}, Abc{}).c, 200.0);
}

TEST(Inverter, PhaseVoltagesRemoveCommonMode) {
  Inverter inv(400.0);
  const Abc v = inv.phase_voltages(LegStates{true, true, true}, Abc{});
  EXPECT_NEAR(v.a, 0.0, 1e-9);
  EXPECT_NEAR(v.b, 0.0, 1e-9);
  EXPECT_NEAR(v.c, 0.0, 1e-9);
}

TEST(Inverter, CarrierComparisonCentersOnTime) {
  // duty 0.5: high exactly in the middle half of the period.
  const Duties d{0.5, 1.0, 0.0};
  EXPECT_FALSE(Inverter::compare_carrier(d, 0.1).a);
  EXPECT_TRUE(Inverter::compare_carrier(d, 0.5).a);
  EXPECT_FALSE(Inverter::compare_carrier(d, 0.9).a);
  EXPECT_TRUE(Inverter::compare_carrier(d, 0.5).b);   // duty 1 always on mid
  EXPECT_FALSE(Inverter::compare_carrier(d, 0.5).c);  // duty 0 never on
}

TEST(Inverter, AnyFaultReflectsInjection) {
  Inverter inv;
  EXPECT_FALSE(inv.any_fault());
  inv.set_open_fault(Igbt::kLowerC, true);
  EXPECT_TRUE(inv.any_fault());
  EXPECT_TRUE(inv.has_open_fault(Igbt::kLowerC));
  inv.set_open_fault(Igbt::kLowerC, false);
  EXPECT_FALSE(inv.any_fault());
}

// ------------------------------------------------------------------ pi ----

TEST(PiController, TracksAndClamps) {
  PiController pi(1.0, 10.0, 5.0);
  EXPECT_DOUBLE_EQ(pi.update(100.0, 0.01), 5.0);  // clamped
  // Anti-windup: integral does not keep growing while clamped.
  for (int i = 0; i < 100; ++i) (void)pi.update(100.0, 0.01);
  (void)pi.update(-1.0, 0.01);
  EXPECT_LT(pi.integral(), 6.0);
}

TEST(PiController, ResetClearsIntegral) {
  PiController pi(0.0, 10.0, 100.0);
  (void)pi.update(1.0, 1.0);
  EXPECT_GT(pi.integral(), 0.0);
  pi.reset();
  EXPECT_DOUBLE_EQ(pi.integral(), 0.0);
}

// -------------------------------------------------------------- detector ----

TEST(OpenSwitchDetector, SilentOnHealthyCurrents) {
  // Window covers exactly two electrical periods so the residual mean of a
  // healthy sinusoid vanishes (real detectors size the window this way).
  OpenSwitchDetector det(200, 0.25);
  for (int i = 0; i < 1000; ++i) {
    const double th = kTwoPi / 100.0 * i;
    det.sample(Abc{50 * std::cos(th), 50 * std::cos(th - 2 * kPi / 3),
                   50 * std::cos(th + 2 * kPi / 3)});
  }
  EXPECT_FALSE(det.diagnose().has_value());
}

TEST(OpenSwitchDetector, IdentifiesUpperFaultFromNegativeMean) {
  OpenSwitchDetector det(100, 0.25);
  for (int i = 0; i < 200; ++i) {
    const double th = 0.05 * i;
    // Phase a positive half-wave suppressed (upper switch open).
    const double ia = std::min(50 * std::cos(th), 0.0);
    det.sample(Abc{ia, 50 * std::cos(th - 2 * kPi / 3), 50 * std::cos(th + 2 * kPi / 3)});
  }
  ASSERT_TRUE(det.diagnose().has_value());
  EXPECT_EQ(det.diagnose()->phase, 0);
  EXPECT_TRUE(det.diagnose()->upper);
  EXPECT_EQ(det.diagnose()->igbt(), Igbt::kUpperA);
}

// ---------------------------------------------------------------- drive ----

TEST(MotorDrive, SpeedLoopConverges) {
  MotorDrive drive;
  for (int k = 0; k < 30000; ++k) drive.step(150.0, 20.0);
  EXPECT_NEAR(drive.machine().speed_rad_s(), 150.0, 2.0);
}

TEST(MotorDrive, HealthyWaveformLowThd) {
  MotorDrive drive;
  for (int k = 0; k < 30000; ++k) drive.step(200.0, 30.0);
  drive.set_recording(true);
  for (int k = 0; k < 5000; ++k) drive.step(200.0, 30.0);
  const double fund_hz = drive.machine().electrical_speed() / kTwoPi;
  const double thd = total_harmonic_distortion(drive.recorded_current_a(),
                                               drive.record_rate_hz(), fund_hz);
  EXPECT_LT(thd, 0.15);
  EXPECT_GT(harmonic_amplitude(drive.recorded_current_a(), drive.record_rate_hz(),
                               fund_hz, 1),
            10.0);  // a real fundamental is present
}

TEST(MotorDrive, FaultDistortsThenRecovers) {
  MotorDrive drive;
  for (int k = 0; k < 30000; ++k) drive.step(200.0, 30.0);

  drive.inject_open_fault(Igbt::kUpperA);
  EXPECT_NE(drive.mode(), DriveMode::kNormal);
  // Detection + reconfiguration happen autonomously.
  for (int k = 0; k < 50000 && drive.mode() != DriveMode::kReconfigured; ++k)
    drive.step(200.0, 30.0);
  EXPECT_EQ(drive.mode(), DriveMode::kReconfigured);
  ASSERT_TRUE(drive.detection_latency_s().has_value());
  EXPECT_LT(*drive.detection_latency_s(), 0.1);  // real-time requirement

  // Post-fault operation returns to the commanded speed.
  for (int k = 0; k < 50000; ++k) drive.step(200.0, 30.0);
  EXPECT_NEAR(drive.machine().speed_rad_s(), 200.0, 5.0);
  EXPECT_TRUE(drive.inverter().leg_isolated(0));
}

TEST(MotorDrive, NonFaultTolerantDriveStaysDegraded) {
  DriveConfig cfg;
  cfg.fault_tolerant = false;
  MotorDrive drive(cfg);
  for (int k = 0; k < 20000; ++k) drive.step(200.0, 30.0);
  drive.inject_open_fault(Igbt::kUpperA);
  for (int k = 0; k < 30000; ++k) drive.step(200.0, 30.0);
  EXPECT_EQ(drive.mode(), DriveMode::kFaulted);  // never reconfigures
}

TEST(MotorDrive, RecordingLifecycle) {
  MotorDrive drive;
  drive.set_recording(true);
  for (int k = 0; k < 10; ++k) drive.step(10.0, 0.0);
  EXPECT_EQ(drive.recorded_current_a().size(), 100u);  // 10 substeps/period
  EXPECT_EQ(drive.recorded_torque().size(), 10u);
  drive.clear_recording();
  EXPECT_TRUE(drive.recorded_current_a().empty());
}

TEST(Thd, PureSineIsClean) {
  std::vector<double> wave;
  const double fs = 10000.0;
  const double f0 = 50.0;
  for (int i = 0; i < 2000; ++i) wave.push_back(std::sin(kTwoPi * f0 * i / fs));
  EXPECT_LT(total_harmonic_distortion(wave, fs, f0), 0.01);
  EXPECT_NEAR(harmonic_amplitude(wave, fs, f0, 1), 1.0, 0.01);
}

TEST(Thd, SquareWaveMatchesTheory) {
  std::vector<double> wave;
  const double fs = 50000.0;
  const double f0 = 50.0;
  for (int i = 0; i < 50000; ++i)
    wave.push_back(std::sin(kTwoPi * f0 * i / fs) >= 0.0 ? 1.0 : -1.0);
  // Square wave THD (up to infinite harmonics) ~ 48.3%; truncated at 20
  // harmonics it is a bit below that.
  const double thd = total_harmonic_distortion(wave, fs, f0, 20);
  EXPECT_NEAR(thd, 0.45, 0.05);
}

}  // namespace

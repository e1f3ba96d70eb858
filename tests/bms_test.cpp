// Unit tests for the BMS: SoC estimators, balancing policies, the safety
// monitor, and the central battery manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ev/bms/balancing.h"
#include "ev/bms/battery_manager.h"
#include "ev/bms/module_manager.h"
#include "ev/bms/safety.h"
#include "ev/bms/soc_estimator.h"
#include "ev/util/rng.h"

namespace {

using namespace ev::bms;
using namespace ev::battery;

// ---------------------------------------------------------- estimators ----

TEST(CoulombCounting, ExactWithPerfectSensor) {
  CoulombCountingEstimator est(10.0, 0.8);
  // 10 A discharge for 360 s = 0.1 of capacity.
  for (int i = 0; i < 360; ++i) est.update(10.0, 3.7, 1.0);
  EXPECT_NEAR(est.soc(), 0.7, 1e-9);
}

TEST(CoulombCounting, DriftsUnderBias) {
  CoulombCountingEstimator est(10.0, 0.5);
  // True current zero, sensed 0.05 A bias: estimate walks away linearly.
  for (int i = 0; i < 3600; ++i) est.update(0.05, 3.7, 1.0);
  EXPECT_NEAR(est.soc(), 0.5 - 0.05 * 3600 / 36000.0, 1e-6);
}

TEST(CoulombCounting, RejectsNonPositiveCapacity) {
  EXPECT_THROW(CoulombCountingEstimator(0.0, 0.5), std::invalid_argument);
}

TEST(VoltageCorrected, ConvergesFromWrongInitialGuess) {
  auto curve = std::make_shared<const OcvCurve>(OcvCurve::nmc());
  VoltageCorrectedEstimator est(10.0, 0.2, curve, 0.0015, 0.05);
  // True cell sits at 0.7: rested terminal voltage = OCV(0.7).
  const double v_true = curve->voltage(0.7);
  for (int i = 0; i < 2000; ++i) est.update(0.0, v_true, 1.0);
  EXPECT_NEAR(est.soc(), 0.7, 0.02);
}

TEST(VoltageCorrected, ResistsSensorBias) {
  auto curve = std::make_shared<const OcvCurve>(OcvCurve::nmc());
  VoltageCorrectedEstimator corrected(10.0, 0.5, curve, 0.0015, 0.05);
  CoulombCountingEstimator naive(10.0, 0.5);
  // True state stays 0.5 (no real current) but the sensor reports 0.05 A.
  const double v_true = curve->voltage(0.5);
  for (int i = 0; i < 7200; ++i) {
    corrected.update(0.05, v_true, 1.0);
    naive.update(0.05, v_true, 1.0);
  }
  EXPECT_LT(std::abs(corrected.soc() - 0.5), std::abs(naive.soc() - 0.5) / 4.0);
}

TEST(VoltageCorrected, NullCurveRejected) {
  EXPECT_THROW(VoltageCorrectedEstimator(10.0, 0.5, nullptr, 0.001),
               std::invalid_argument);
}

// ----------------------------------------------------------- balancing ----

CellParameters cell_params() {
  CellParameters p;
  p.capacity_ah = 10.0;
  return p;
}

SeriesModule unbalanced_module() {
  return SeriesModule({{cell_params(), 0.62}, {cell_params(), 0.55}, {cell_params(), 0.50}},
                      OcvCurve::nmc());
}

TEST(SocSpreadHelper, ComputesMaxMinusMin) {
  const std::vector<double> socs{0.5, 0.62, 0.55};
  EXPECT_NEAR(soc_spread(socs), 0.12, 1e-12);
  EXPECT_EQ(soc_spread({}), 0.0);
}

TEST(PassiveBalancer, EngagesBleedOnHighCells) {
  SeriesModule m = unbalanced_module();
  PassiveBalancer policy(0.003);
  const std::vector<double> est{0.62, 0.55, 0.50};
  policy.decide(est, m, 0.50);
  EXPECT_TRUE(m.bleed_engaged(0));
  EXPECT_TRUE(m.bleed_engaged(1));
  EXPECT_FALSE(m.bleed_engaged(2));  // the reference (lowest) cell
}

TEST(ActiveBalancer, TransfersFromMaxToMin) {
  SeriesModule m = unbalanced_module();
  ActiveBalancer policy(0.003);
  const std::vector<double> est{0.62, 0.55, 0.50};
  policy.decide(est, m, 0.50);
  EXPECT_TRUE(m.transfer_active());
  for (std::size_t i = 0; i < m.cell_count(); ++i) EXPECT_FALSE(m.bleed_engaged(i));
}

TEST(ActiveBalancer, RestsWhenConverged) {
  SeriesModule m = unbalanced_module();
  ActiveBalancer policy(0.01);
  const std::vector<double> est{0.501, 0.500, 0.502};
  policy.decide(est, m, 0.50);
  EXPECT_FALSE(m.transfer_active());
  EXPECT_TRUE(policy.converged(est));
}

TEST(NoBalancer, ReleasesEverything) {
  SeriesModule m = unbalanced_module();
  m.set_bleed(0, true);
  m.command_transfer(0, 2);
  NoBalancer policy;
  policy.decide(std::vector<double>{0.6, 0.5, 0.4}, m, 0.4);
  EXPECT_FALSE(m.bleed_engaged(0));
  EXPECT_FALSE(m.transfer_active());
}

// Property: both real policies drive the true SoC spread below tolerance.
class BalancingConvergence : public ::testing::TestWithParam<BalancingKind> {};

TEST_P(BalancingConvergence, SpreadShrinksToTolerance) {
  SeriesModule m = unbalanced_module();
  const double tol = 0.005;
  std::unique_ptr<BalancingStrategy> policy;
  switch (GetParam()) {
    case BalancingKind::kPassive: policy = std::make_unique<PassiveBalancer>(tol); break;
    case BalancingKind::kActive: policy = std::make_unique<ActiveBalancer>(tol); break;
    default: GTEST_SKIP();
  }
  // Idle pack, ideal estimates (policy quality is what is under test).
  for (int step = 0; step < 400000 && m.soc_spread() > tol; ++step) {
    std::vector<double> est;
    for (std::size_t i = 0; i < m.cell_count(); ++i) est.push_back(m.cell(i).soc());
    const double target = *std::min_element(est.begin(), est.end());
    policy->decide(est, m, target);
    (void)m.step(0.0, 1.0);
  }
  EXPECT_LE(m.soc_spread(), tol * 1.2);
}

INSTANTIATE_TEST_SUITE_P(Policies, BalancingConvergence,
                         ::testing::Values(BalancingKind::kPassive,
                                           BalancingKind::kActive));

TEST(Balancing, ActiveWastesLessEnergyThanPassive) {
  SeriesModule passive_m = unbalanced_module();
  SeriesModule active_m = unbalanced_module();
  PassiveBalancer passive(0.005);
  ActiveBalancer active(0.005);
  for (int step = 0; step < 400000; ++step) {
    std::vector<double> est_p, est_a;
    for (std::size_t i = 0; i < 3; ++i) {
      est_p.push_back(passive_m.cell(i).soc());
      est_a.push_back(active_m.cell(i).soc());
    }
    if (passive_m.soc_spread() > 0.005) {
      passive.decide(est_p, passive_m, *std::min_element(est_p.begin(), est_p.end()));
      (void)passive_m.step(0.0, 1.0);
    }
    if (active_m.soc_spread() > 0.005) {
      active.decide(est_a, active_m, *std::min_element(est_a.begin(), est_a.end()));
      (void)active_m.step(0.0, 1.0);
    }
  }
  const double passive_waste = passive_m.bleed_energy_j();
  const double active_waste = active_m.transfer_loss_j();
  EXPECT_GT(passive_waste, 3.0 * active_waste);
  // Active balancing leaves more charge in the weakest cell.
  EXPECT_GT(active_m.min_soc(), passive_m.min_soc() + 0.02);
}

// -------------------------------------------------------------- safety ----

TEST(SafetyMonitor, DebouncesTransients) {
  SafetyMonitor mon;
  const std::vector<double> bad_v{4.5};
  const std::vector<double> good_v{3.7};
  const std::vector<double> temps{25.0};
  // Two violating samples (below the 3-sample debounce), then recovery.
  (void)mon.evaluate(bad_v, temps, 0.0);
  (void)mon.evaluate(bad_v, temps, 0.0);
  (void)mon.evaluate(good_v, temps, 0.0);
  EXPECT_FALSE(mon.tripped());
  EXPECT_TRUE(mon.faults().empty());
}

TEST(SafetyMonitor, LatchesAfterDebounce) {
  SafetyMonitor mon;
  const std::vector<double> bad_v{4.5};
  const std::vector<double> temps{25.0};
  SafetyAction action = SafetyAction::kNone;
  for (int i = 0; i < 3; ++i) action = mon.evaluate(bad_v, temps, 0.0);
  EXPECT_EQ(action, SafetyAction::kOpenContactor);
  EXPECT_TRUE(mon.tripped());
  ASSERT_EQ(mon.faults().size(), 1u);
  EXPECT_EQ(mon.faults()[0].kind, FaultKind::kOvervoltage);
  // Latching: healthy samples do not clear the trip.
  const std::vector<double> good_v{3.7};
  EXPECT_EQ(mon.evaluate(good_v, temps, 0.0), SafetyAction::kOpenContactor);
  mon.reset();
  EXPECT_FALSE(mon.tripped());
}

TEST(SafetyMonitor, ResetClearsLatchesAndDebounceCounters) {
  SafetyMonitor mon;
  const std::vector<double> bad_v{4.5};
  const std::vector<double> temps{25.0};
  // Trip fully, then accumulate two fresh violating samples (half of a new
  // debounce count) before the service reset.
  for (int i = 0; i < 3; ++i) (void)mon.evaluate(bad_v, temps, 0.0);
  ASSERT_TRUE(mon.tripped());
  ASSERT_FALSE(mon.faults().empty());
  (void)mon.evaluate(bad_v, temps, 0.0);
  (void)mon.evaluate(bad_v, temps, 0.0);

  mon.reset();
  EXPECT_FALSE(mon.tripped());
  EXPECT_TRUE(mon.faults().empty());

  // The half-counted violation must NOT survive the reset: two more bad
  // samples make only 2 of 3 debounce counts, so the monitor stays untripped.
  (void)mon.evaluate(bad_v, temps, 0.0);
  SafetyAction action = mon.evaluate(bad_v, temps, 0.0);
  EXPECT_NE(action, SafetyAction::kOpenContactor);
  EXPECT_FALSE(mon.tripped());
  EXPECT_TRUE(mon.faults().empty());
  // The third consecutive sample after reset re-latches normally.
  action = mon.evaluate(bad_v, temps, 0.0);
  EXPECT_EQ(action, SafetyAction::kOpenContactor);
}

TEST(SafetyMonitor, WarnsBeforeTripping) {
  SafetyMonitor mon;
  // Inside hard limits but within the warning margin.
  const std::vector<double> v{4.17};
  const std::vector<double> t{25.0};
  EXPECT_EQ(mon.evaluate(v, t, 0.0), SafetyAction::kDerate);
  EXPECT_FALSE(mon.tripped());
}

TEST(SafetyMonitor, ThermalRunawayIsImmediate) {
  SafetyMonitor mon;
  const std::vector<double> v{3.7};
  const std::vector<double> hot{85.0};
  const auto action = mon.evaluate(v, hot, 0.0);
  EXPECT_EQ(action, SafetyAction::kOpenContactor);
  bool found = false;
  for (const auto& f : mon.faults())
    if (f.kind == FaultKind::kThermalRunaway) found = true;
  EXPECT_TRUE(found);
}

TEST(SafetyMonitor, OvercurrentBothDirections) {
  SafetyMonitor mon;
  const std::vector<double> v{3.7};
  const std::vector<double> t{25.0};
  for (int i = 0; i < 3; ++i) (void)mon.evaluate(v, t, 500.0);
  EXPECT_TRUE(mon.tripped());
  SafetyMonitor mon2;
  for (int i = 0; i < 3; ++i) (void)mon2.evaluate(v, t, -200.0);
  EXPECT_TRUE(mon2.tripped());
}

TEST(SafetyMonitor, FaultNames) {
  EXPECT_EQ(to_string(FaultKind::kOvervoltage), "overvoltage");
  EXPECT_EQ(to_string(FaultKind::kThermalRunaway), "thermal-runaway");
}

// ------------------------------------------------------ battery manager ----

TEST(BatteryManager, ReportsPlausibleSoc) {
  ev::util::Rng rng(21);
  PackConfig pc;
  pc.initial_soc = 0.8;
  Pack pack(pc, rng);
  BmsConfig bc;
  bc.initial_soc_estimate = 0.8;
  BatteryManager bms(pack, bc);
  for (int i = 0; i < 100; ++i) {
    (void)pack.step(20.0, 0.1);
    (void)bms.step(pack, 0.1, rng);
  }
  EXPECT_NEAR(bms.report().pack_soc, pack.mean_soc(), 0.02);
  EXPECT_GT(bms.report().discharge_power_limit_w, 0.0);
}

TEST(BatteryManager, TripsOnDeepOvercharge) {
  ev::util::Rng rng(23);
  PackConfig pc;
  pc.initial_soc = 0.99;
  Pack pack(pc, rng);
  BmsConfig bc;
  bc.initial_soc_estimate = 0.99;
  BatteryManager bms(pack, bc);
  // Hard overcharge until the monitor reacts.
  for (int i = 0; i < 3000 && !bms.safety().tripped(); ++i) {
    (void)pack.step(-60.0, 1.0);
    (void)bms.step(pack, 1.0, rng);
  }
  EXPECT_TRUE(bms.safety().tripped());
  EXPECT_FALSE(pack.contactor_closed());
  EXPECT_DOUBLE_EQ(bms.report().discharge_power_limit_w, 0.0);
}

TEST(BatteryManager, ChargeLimitTapersNearFull) {
  ev::util::Rng rng(25);
  PackConfig pc;
  pc.initial_soc = 0.97;
  pc.soc_spread_sigma = 0.0;
  Pack pack(pc, rng);
  BmsConfig bc;
  bc.initial_soc_estimate = 0.97;
  BatteryManager bms(pack, bc);
  (void)pack.step(0.0, 0.1);
  const BmsReport r = bms.step(pack, 0.1, rng);
  EXPECT_LT(r.charge_power_limit_w, r.discharge_power_limit_w);
}

TEST(BatteryManager, BalancingReducesSpreadOverTime) {
  ev::util::Rng rng(27);
  PackConfig pc;
  pc.module_count = 2;
  pc.cells_per_module = 4;
  pc.soc_spread_sigma = 0.03;
  Pack pack(pc, rng);
  BmsConfig bc;
  bc.balancing = BalancingKind::kActive;
  bc.initial_soc_estimate = 0.9;
  bc.estimator = EstimatorKind::kVoltageCorrected;
  BatteryManager bms(pack, bc);
  const double spread_before = pack.max_soc() - pack.min_soc();
  for (int i = 0; i < 30000; ++i) {
    (void)pack.step(0.0, 1.0);
    (void)bms.step(pack, 1.0, rng);
  }
  const double spread_after = pack.max_soc() - pack.min_soc();
  EXPECT_LT(spread_after, spread_before * 0.5);
}

TEST(BatteryManager, InterModuleTransferEqualizesModules) {
  ev::util::Rng rng(41);
  PackConfig pc;
  pc.module_count = 2;
  pc.cells_per_module = 4;
  pc.soc_spread_sigma = 0.0;
  pc.initial_soc = 0.7;
  Pack pack(pc, rng);
  // Skew one whole module up: intra-module balancing alone cannot fix this.
  for (std::size_t c = 0; c < 4; ++c)
    pack.module(0).cell(c).inject_charge(0.08 * pack.module(0).cell(c).charge_coulomb());
  const double spread_before = pack.max_soc() - pack.min_soc();
  ASSERT_GT(spread_before, 0.05);

  BmsConfig bc;
  bc.balancing = BalancingKind::kActive;
  bc.initial_soc_estimate = 0.7;
  BatteryManager bms(pack, bc);
  for (int i = 0; i < 40000; ++i) {
    (void)pack.step(0.0, 1.0);
    (void)bms.step(pack, 1.0, rng);
  }
  EXPECT_LT(pack.max_soc() - pack.min_soc(), spread_before * 0.3);
  EXPECT_GT(pack.total_transfer_loss_j(), 0.0);
}

TEST(BatteryManager, PassiveReachesPackWideTarget) {
  ev::util::Rng rng(43);
  PackConfig pc;
  pc.module_count = 2;
  pc.cells_per_module = 3;
  pc.soc_spread_sigma = 0.0;
  pc.initial_soc = 0.7;
  Pack pack(pc, rng);
  // Module 0 sits above module 1: the pack-wide target must pull it down.
  for (std::size_t c = 0; c < 3; ++c)
    pack.module(0).cell(c).inject_charge(0.05 * pack.module(0).cell(c).charge_coulomb());
  BmsConfig bc;
  bc.balancing = BalancingKind::kPassive;
  bc.initial_soc_estimate = 0.7;
  BatteryManager bms(pack, bc);
  const double spread_before = pack.max_soc() - pack.min_soc();
  for (int i = 0; i < 80000; ++i) {
    (void)pack.step(0.0, 1.0);
    (void)bms.step(pack, 1.0, rng);
  }
  EXPECT_LT(pack.max_soc() - pack.min_soc(), spread_before * 0.3);
  EXPECT_GT(pack.total_bleed_energy_j(), 0.0);
}

TEST(ModuleManager, MeasuresThroughSensors) {
  ev::util::Rng rng(29);
  SeriesModule module({{cell_params(), 0.6}, {cell_params(), 0.6}}, OcvCurve::nmc());
  auto curve = std::make_shared<const OcvCurve>(OcvCurve::nmc());
  ModuleManager mm(2, 10.0, 0.6, EstimatorKind::kVoltageCorrected, curve, 0.0015,
                   std::make_unique<PassiveBalancer>());
  mm.step(module, 0.0, 1.0, rng);
  ASSERT_EQ(mm.measured_voltages().size(), 2u);
  EXPECT_NEAR(mm.measured_voltages()[0], module.cell(0).terminal_voltage(0.0), 0.01);
  EXPECT_NEAR(mm.estimated_soc()[0], 0.6, 0.05);
}

TEST(ModuleManager, RejectsBadConstruction) {
  auto curve = std::make_shared<const OcvCurve>(OcvCurve::nmc());
  EXPECT_THROW(ModuleManager(0, 10.0, 0.5, EstimatorKind::kCoulombCounting, curve, 0.001,
                             std::make_unique<NoBalancer>()),
               std::invalid_argument);
  EXPECT_THROW(ModuleManager(2, 10.0, 0.5, EstimatorKind::kCoulombCounting, curve, 0.001,
                             nullptr),
               std::invalid_argument);
}

}  // namespace

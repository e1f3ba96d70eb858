// Unit tests for the powertrain: vehicle dynamics, drive cycles, DC-DC,
// driver model, brake blending, quasi-static motor map, range estimation,
// and the integrated simulation.
#include <gtest/gtest.h>

#include <cmath>

#include "ev/powertrain/dcdc.h"
#include "ev/powertrain/drive_cycle.h"
#include "ev/powertrain/driver.h"
#include "ev/powertrain/motor_map.h"
#include "ev/powertrain/range.h"
#include "ev/powertrain/regen.h"
#include "ev/powertrain/simulation.h"
#include "ev/powertrain/vehicle.h"
#include "ev/util/units.h"

namespace {

using namespace ev::powertrain;

// ------------------------------------------------------------- vehicle ----

TEST(VehicleDynamics, AcceleratesUnderForce) {
  VehicleDynamics v;
  const double accel = v.step(3200.0, 1.0);  // 3200 N on 1600 kg
  EXPECT_NEAR(accel, 2.0, 0.1);              // minus rolling resistance at start
  EXPECT_GT(v.speed_mps(), 1.5);
}

TEST(VehicleDynamics, CoastDownDecaysSpeed) {
  VehicleDynamics v;
  v.set_speed(30.0);
  for (int i = 0; i < 60; ++i) (void)v.step(0.0, 1.0);
  EXPECT_LT(v.speed_mps(), 25.0);
  EXPECT_GT(v.speed_mps(), 5.0);
}

TEST(VehicleDynamics, NeverReverses) {
  VehicleDynamics v;
  v.set_speed(1.0);
  for (int i = 0; i < 100; ++i) (void)v.step(-20000.0, 0.1);
  EXPECT_DOUBLE_EQ(v.speed_mps(), 0.0);
}

TEST(VehicleDynamics, RoadLoadGrowsWithSpeed) {
  VehicleDynamics v;
  v.set_speed(10.0);
  const double low = v.road_load_n();
  v.set_speed(30.0);
  EXPECT_GT(v.road_load_n(), low);
}

TEST(VehicleDynamics, GradeAddsLoad) {
  VehicleDynamics v;
  v.set_speed(20.0);
  EXPECT_GT(v.road_load_n(0.05), v.road_load_n(0.0));
  EXPECT_LT(v.road_load_n(-0.05), v.road_load_n(0.0));
}

TEST(VehicleDynamics, GearPathRoundTrip) {
  VehicleDynamics v;
  const double torque = 100.0;
  const double force = v.wheel_force_n(torque);
  EXPECT_NEAR(v.motor_torque_nm(force), torque, 1e-9);
  v.set_speed(20.0);
  EXPECT_NEAR(v.motor_speed_rad_s(), 20.0 / 0.31 * 9.0, 1e-9);
}

TEST(VehicleDynamics, DistanceIntegrates) {
  VehicleDynamics v;
  v.set_speed(10.0);
  VehicleParameters p = v.params();
  for (int i = 0; i < 100; ++i) (void)v.step(v.road_load_n(), 0.1);  // hold speed
  EXPECT_NEAR(v.distance_m(), 100.0, 1.0);
  (void)p;
}

// ---------------------------------------------------------- drive cycle ----

class CycleValidity : public ::testing::TestWithParam<const char*> {
 public:
  static DriveCycle cycle_for(const std::string& name) {
    if (name == "urban") return DriveCycle::urban();
    if (name == "highway") return DriveCycle::highway();
    return DriveCycle::suburban();
  }
};

TEST_P(CycleValidity, WellFormed) {
  const DriveCycle c = cycle_for(GetParam());
  EXPECT_GT(c.duration_s(), 100.0);
  EXPECT_GT(c.ideal_distance_m(), 500.0);
  EXPECT_GT(c.ideal_distance_m() / c.duration_s(), 1.0);  // mean speed [m/s]
  // Speed profile is continuous and clamped at the ends.
  EXPECT_DOUBLE_EQ(c.speed_at(-10.0), c.speed_at(0.0));
  EXPECT_DOUBLE_EQ(c.speed_at(c.duration_s() + 100.0), 0.0);
  for (double t = 0.0; t < c.duration_s(); t += 1.0) EXPECT_GE(c.speed_at(t), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Cycles, CycleValidity,
                         ::testing::Values("urban", "highway", "suburban"));

TEST(DriveCycle, UrbanHasManyStops) {
  EXPECT_GE(DriveCycle::urban().stop_count(), 10);
  EXPECT_LE(DriveCycle::highway().stop_count(), 1);
}

TEST(DriveCycle, UrbanSlowerThanHighway) {
  const DriveCycle urban = DriveCycle::urban();
  const DriveCycle highway = DriveCycle::highway();
  EXPECT_LT(urban.ideal_distance_m() / urban.duration_s(),
            highway.ideal_distance_m() / highway.duration_s());
}

TEST(DriveCycle, RepeatConcatenates) {
  const DriveCycle base = DriveCycle::urban();
  const DriveCycle x3 = DriveCycle::repeat(base, 3);
  EXPECT_NEAR(x3.duration_s(), 3 * base.duration_s(), 1e-6);
  EXPECT_NEAR(x3.ideal_distance_m(), 3 * base.ideal_distance_m(), 1e-6);
  EXPECT_NEAR(x3.speed_at(base.duration_s() + 10.0), base.speed_at(10.0), 1e-9);
}

TEST(DriveCycle, BuilderProducesMonotoneTime) {
  CycleBuilder b("test");
  b.ramp_to(50.0, 10.0).cruise(20.0).stop(8.0);
  const DriveCycle c = std::move(b).build();
  for (std::size_t i = 1; i < c.points().size(); ++i)
    EXPECT_GT(c.points()[i].t_s, c.points()[i - 1].t_s);
  EXPECT_NEAR(c.speed_at(10.0), ev::util::kmh_to_mps(50.0), 1e-9);
}

TEST(DriveCycle, RejectsInvalidProfiles) {
  EXPECT_THROW(DriveCycle("x", {{0.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(DriveCycle("x", {{1.0, 0.0}, {2.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(DriveCycle("x", {{0.0, 0.0}, {0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(DriveCycle("x", {{0.0, 0.0}, {1.0, -5.0}}), std::invalid_argument);
}

// ----------------------------------------------------------------- dcdc ----

TEST(DcDc, EfficiencyPeaksMidLoad) {
  DcDcConverter c;
  EXPECT_GT(c.efficiency(1500.0), 0.9);
  EXPECT_LT(c.efficiency(50.0), c.efficiency(1500.0));  // fixed losses dominate
  EXPECT_DOUBLE_EQ(c.efficiency(0.0), 0.0);
}

TEST(DcDc, TransferAccountsEnergy) {
  DcDcConverter c;
  const double in = c.transfer(1000.0, 10.0);
  EXPECT_GT(in, 1000.0);
  EXPECT_NEAR(c.delivered_j(), 10000.0, 1e-9);
  EXPECT_NEAR(c.losses_j(), (in - 1000.0) * 10.0, 1e-9);
}

TEST(DcDc, ClampsAtRatedPower) {
  DcDcConverter c;
  const double in = c.transfer(1e6, 1.0);
  EXPECT_LT(in, 3500.0);  // rated 3 kW + losses
}

// --------------------------------------------------------------- driver ----

TEST(Driver, AcceleratesTowardTarget) {
  DriverModel d;
  const PedalState p = d.update(20.0, 0.0, 0.1);
  EXPECT_GT(p.accelerator, 0.5);
  EXPECT_DOUBLE_EQ(p.brake, 0.0);
}

TEST(Driver, BrakesWhenTooFast) {
  DriverModel d;
  const PedalState p = d.update(5.0, 20.0, 0.1);
  EXPECT_GT(p.brake, 0.5);
  EXPECT_DOUBLE_EQ(p.accelerator, 0.0);
}

TEST(Driver, HoldsBrakeAtStandstill) {
  DriverModel d;
  const PedalState p = d.update(0.0, 0.0, 0.1);
  EXPECT_DOUBLE_EQ(p.accelerator, 0.0);
  EXPECT_DOUBLE_EQ(p.brake, 1.0);
}

// ----------------------------------------------------------------- regen ----

TEST(BrakeBlender, SplitsSumToDemand) {
  BrakeBlender b;
  for (double pedal : {0.1, 0.5, 1.0}) {
    const BrakeSplit s = b.split(pedal, 20.0, 60e3);
    EXPECT_NEAR(s.regen_force_n + s.friction_force_n,
                pedal * b.config().max_brake_force_n, 1e-9);
    EXPECT_GE(s.regen_force_n, 0.0);
    EXPECT_GE(s.friction_force_n, 0.0);
    EXPECT_LE(s.regen_force_n, b.config().max_regen_force_n + 1e-9);
  }
}

TEST(BrakeBlender, DisabledMeansAllFriction) {
  RegenConfig cfg;
  cfg.enabled = false;
  BrakeBlender b(cfg);
  const BrakeSplit s = b.split(0.8, 20.0, 60e3);
  EXPECT_DOUBLE_EQ(s.regen_force_n, 0.0);
  EXPECT_GT(s.friction_force_n, 0.0);
}

TEST(BrakeBlender, RespectsChargeLimit) {
  BrakeBlender b;
  const BrakeSplit s = b.split(1.0, 20.0, 10e3);  // battery only takes 10 kW
  EXPECT_LE(s.regen_force_n * 20.0, 10e3 * 1.0001);
}

TEST(BrakeBlender, FadesAtLowSpeed) {
  BrakeBlender b;
  // Below the fade knee the available regen force shrinks with speed (the
  // machine loses field-oriented authority), reaching zero at standstill.
  const BrakeSplit slow = b.split(1.0, 0.5, 60e3);
  const BrakeSplit knee = b.split(1.0, b.config().fade_below_mps, 60e3);
  EXPECT_LT(slow.regen_force_n, knee.regen_force_n);
  const BrakeSplit stopped = b.split(1.0, 0.0, 60e3);
  EXPECT_DOUBLE_EQ(stopped.regen_force_n, 0.0);
}

// ------------------------------------------------------------- motor map ----

TEST(MotorMap, ClampsTorqueAndPower) {
  MotorMap m;
  EXPECT_DOUBLE_EQ(m.clamp_torque(1000.0, 10.0), m.config().max_torque_nm);
  // At high speed, the power envelope binds before the torque limit.
  const double w = 800.0;
  EXPECT_NEAR(m.clamp_torque(1000.0, w), m.config().max_power_w / w, 1e-9);
}

TEST(MotorMap, LossesAlwaysPositive) {
  MotorMap m;
  EXPECT_GT(m.loss_w(0.0, 0.0), 0.0);  // inverter fixed losses
  EXPECT_GT(m.loss_w(100.0, 300.0), m.loss_w(10.0, 300.0));
}

TEST(MotorMap, MotoringDrawsMoreThanMechanical) {
  MotorMap m;
  const double mech = 100.0 * 300.0;
  EXPECT_GT(m.electrical_power_w(100.0, 300.0), mech);
}

TEST(MotorMap, RegenReturnsLessThanMechanical) {
  MotorMap m;
  const double mech = -100.0 * 300.0;  // negative: generating
  const double elec = m.electrical_power_w(-100.0, 300.0);
  EXPECT_LT(elec, 0.0);
  EXPECT_GT(elec, mech);  // magnitude reduced by losses
}

TEST(MotorMap, EfficiencyReasonableAtCruise) {
  MotorMap m;
  const double eta = m.efficiency(80.0, 400.0);
  EXPECT_GT(eta, 0.80);
  EXPECT_LT(eta, 0.99);
}

// ------------------------------------------------------------------ range ----

TEST(RangeEstimator, LearnsConsumption) {
  RangeEstimator r(160.0);
  // Feed 1 km at 200 Wh/km repeatedly.
  for (int i = 0; i < 100; ++i) r.update(200.0, 1000.0);
  EXPECT_NEAR(r.consumption_wh_km(), 200.0, 5.0);
}

TEST(RangeEstimator, RangeScalesWithEnergy) {
  RangeEstimator r(200.0);
  EXPECT_NEAR(r.remaining_range_km(10000.0), 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.remaining_range_km(-5.0), 0.0);
}

TEST(RangeEstimator, ReachabilityKeepsReserve) {
  RangeEstimator r(200.0);
  // 50 km of energy, 15% reserve -> 42.5 km reachable.
  EXPECT_TRUE(r.reachable(40.0, 10000.0));
  EXPECT_FALSE(r.reachable(45.0, 10000.0));
}

TEST(RangeEstimator, SmallSegmentsAccumulate) {
  RangeEstimator r(160.0);
  const double before = r.consumption_wh_km();
  for (int i = 0; i < 9; ++i) r.update(2.0, 10.0);  // below granule
  EXPECT_DOUBLE_EQ(r.consumption_wh_km(), before);
  for (int i = 0; i < 20; ++i) r.update(2.0, 10.0);  // crosses 100 m
  EXPECT_NE(r.consumption_wh_km(), before);
}

// -------------------------------------------------------------- simulation ----

TEST(PowertrainSimulation, TracksUrbanCycle) {
  PowertrainConfig cfg;
  PowertrainSimulation sim(cfg);
  const CycleResult r = sim.run_cycle(DriveCycle::urban());
  EXPECT_GT(r.distance_km, 4.0);
  EXPECT_LT(r.mean_abs_speed_error_mps, 0.5);
  EXPECT_GT(r.battery_energy_out_wh, 200.0);
  EXPECT_FALSE(r.safety_tripped);
}

TEST(PowertrainSimulation, ConsumptionInPlausibleBand) {
  PowertrainConfig cfg;
  PowertrainSimulation sim(cfg);
  const CycleResult r = sim.run_cycle(DriveCycle::urban());
  EXPECT_GT(r.consumption_wh_km, 80.0);
  EXPECT_LT(r.consumption_wh_km, 300.0);
}

TEST(PowertrainSimulation, RegenImprovesUrbanConsumption) {
  PowertrainConfig with;
  PowertrainConfig without;
  without.regen.enabled = false;
  PowertrainSimulation a(with);
  PowertrainSimulation b(without);
  const CycleResult ra = a.run_cycle(DriveCycle::urban());
  const CycleResult rb = b.run_cycle(DriveCycle::urban());
  EXPECT_LT(ra.consumption_wh_km, rb.consumption_wh_km * 0.9);
  EXPECT_GT(rb.friction_brake_loss_wh, ra.friction_brake_loss_wh);
  EXPECT_GT(ra.regen_recovered_wh, 50.0);
}

TEST(PowertrainSimulation, EnergyLedgerConsistent) {
  PowertrainConfig cfg;
  PowertrainSimulation sim(cfg);
  const CycleResult r = sim.run_cycle(DriveCycle::suburban());
  // Gross out >= net consumption component sums (losses all positive).
  EXPECT_GE(r.battery_energy_out_wh, r.aux_energy_wh);
  EXPECT_GE(r.motor_loss_wh, 0.0);
  EXPECT_GE(r.friction_brake_loss_wh, 0.0);
  EXPECT_LT(r.final_soc, 0.9);
}

TEST(PowertrainSimulation, SocDecreasesMonotonically) {
  PowertrainConfig cfg;
  PowertrainSimulation sim(cfg);
  const double soc0 = sim.pack().mean_soc();
  (void)sim.run_cycle(DriveCycle::urban());
  const double soc1 = sim.pack().mean_soc();
  (void)sim.run_cycle(DriveCycle::urban());
  const double soc2 = sim.pack().mean_soc();
  EXPECT_LT(soc1, soc0);
  EXPECT_LT(soc2, soc1);
}

TEST(PowertrainSimulation, DeterministicForEqualSeeds) {
  PowertrainConfig cfg;
  cfg.seed = 77;
  PowertrainSimulation a(cfg);
  PowertrainSimulation b(cfg);
  const CycleResult ra = a.run_cycle(DriveCycle::urban());
  const CycleResult rb = b.run_cycle(DriveCycle::urban());
  EXPECT_DOUBLE_EQ(ra.battery_energy_out_wh, rb.battery_energy_out_wh);
  EXPECT_DOUBLE_EQ(ra.distance_km, rb.distance_km);
}

TEST(PowertrainSimulation, SnapshotFieldsPopulated) {
  PowertrainConfig cfg;
  PowertrainSimulation sim(cfg);
  PowertrainSnapshot snap{};
  for (int i = 0; i < 300; ++i) snap = sim.step(15.0);
  EXPECT_GT(snap.speed_mps, 5.0);
  EXPECT_GT(snap.pack_voltage_v, 100.0);
  EXPECT_GT(snap.remaining_range_km, 10.0);
  EXPECT_GT(snap.battery_power_w, 0.0);
}

}  // namespace

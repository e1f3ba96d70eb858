// Unit tests for the core architecture model: the reference function
// network, federated/integrated synthesis, evaluation metrics, and the
// whole-vehicle co-simulation.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>

#include "ev/config/scenario.h"
#include "ev/core/architecture.h"
#include "ev/core/cosim.h"
#include "ev/core/evaluation.h"
#include "ev/core/scenario.h"
#include "ev/core/subsystems.h"
#include "ev/core/synthesis.h"
#include "ev/faults/degradation.h"

namespace {

using namespace ev::core;

// --------------------------------------------------------- architecture ----

TEST(ReferenceNetwork, WellFormed) {
  const FunctionNetwork net = reference_function_network();
  EXPECT_GE(net.functions.size(), 25u);
  EXPECT_GE(net.signals.size(), 20u);
  for (const SignalSpec& s : net.signals) {
    EXPECT_LT(s.from, net.functions.size());
    EXPECT_LT(s.to, net.functions.size());
    EXPECT_NE(s.from, s.to);
  }
  for (const FunctionSpec& f : net.functions) {
    EXPECT_GT(f.period_us, 0);
    EXPECT_GT(f.wcet_us, 0);
    EXPECT_LT(f.wcet_us, f.period_us);
  }
}

TEST(ReferenceNetwork, ScaleGrowsSystem) {
  const auto base = reference_function_network(1);
  const auto big = reference_function_network(5);
  EXPECT_GT(big.functions.size(), base.functions.size());
  EXPECT_GT(big.signals.size(), base.signals.size());
}

TEST(ReferenceNetwork, CoversAllDomains) {
  const auto net = reference_function_network();
  std::set<Domain> domains;
  for (const auto& f : net.functions) domains.insert(f.domain);
  EXPECT_EQ(domains.size(), 5u);
}

TEST(BusTech, PropertiesOrdered) {
  EXPECT_LT(bit_rate_of(BusTech::kLin), bit_rate_of(BusTech::kCan));
  EXPECT_LT(bit_rate_of(BusTech::kCan), bit_rate_of(BusTech::kFlexRay));
  EXPECT_LT(bit_rate_of(BusTech::kFlexRay), bit_rate_of(BusTech::kEthernet));
  EXPECT_EQ(to_string(BusTech::kFlexRay), "FlexRay");
  EXPECT_EQ(to_string(Domain::kChassis), "chassis");
}

// ------------------------------------------------------------ synthesis ----

TEST(Federated, OneEcuPerFunction) {
  const auto net = reference_function_network();
  const Architecture arch = synthesize_federated(net);
  EXPECT_EQ(arch.ecus.size(), net.functions.size());
  EXPECT_EQ(arch.style, "federated");
  EXPECT_EQ(arch.gateway_count, 1u);
  // One bus per populated domain.
  EXPECT_EQ(arch.buses.size(), 5u);
  // Every function mapped exactly once.
  for (std::size_t f = 0; f < net.functions.size(); ++f)
    EXPECT_NO_THROW((void)arch.ecu_of(f));
}

TEST(Federated, EcusAttachedToDomainBuses) {
  const Architecture arch = synthesize_federated(reference_function_network());
  std::size_t attached = 0;
  for (const BusInstance& bus : arch.buses) attached += bus.attached_ecus.size();
  EXPECT_EQ(attached, arch.ecus.size());
}

TEST(Integrated, ConsolidatesDramatically) {
  const auto net = reference_function_network();
  const Architecture fed = synthesize_federated(net);
  const Architecture integ = synthesize_integrated(net);
  EXPECT_LT(integ.ecus.size(), fed.ecus.size() / 3);
  EXPECT_EQ(integ.buses.size(), 1u);
  EXPECT_EQ(integ.gateway_count, 0u);
  // Mapping is total and disjoint.
  std::set<std::size_t> mapped;
  for (const EcuInstance& e : integ.ecus)
    for (std::size_t f : e.hosted_functions) EXPECT_TRUE(mapped.insert(f).second);
  EXPECT_EQ(mapped.size(), net.functions.size());
}

TEST(Integrated, SegregationWithoutPartitionsNeedsMoreEcus) {
  const auto net = reference_function_network();
  IntegratedOptions with;
  with.partitioned_middleware = true;
  IntegratedOptions without;
  without.partitioned_middleware = false;
  EXPECT_GE(synthesize_integrated(net, without).ecus.size(),
            synthesize_integrated(net, with).ecus.size());
}

TEST(Integrated, RespectUtilizationBound) {
  const auto net = reference_function_network(4);
  IntegratedOptions opt;
  const Architecture arch = synthesize_integrated(net, opt);
  const ArchitectureMetrics m = evaluate(arch);
  EXPECT_LE(m.max_utilization, opt.utilization_bound + 1e-9);
}

// ------------------------------------------------------------ evaluation ----

TEST(Evaluation, IntegratedBeatsFederatedOnCostAndWiring) {
  const auto net = reference_function_network();
  const ArchitectureMetrics fed = evaluate(synthesize_federated(net));
  const ArchitectureMetrics integ = evaluate(synthesize_integrated(net));
  EXPECT_LT(integ.ecu_count, fed.ecu_count);
  EXPECT_LT(integ.wiring_m, fed.wiring_m);
  EXPECT_LT(integ.hardware_cost, fed.hardware_cost);
  // Consolidation converts network signals into ECU-local ones.
  EXPECT_GT(integ.local_signals, fed.local_signals);
  EXPECT_LT(integ.cross_ecu_signals, fed.cross_ecu_signals);
}

TEST(Evaluation, FederatedHasLowUtilization) {
  const auto net = reference_function_network();
  const ArchitectureMetrics fed = evaluate(synthesize_federated(net));
  // One function per ECU: hardware mostly idle (the paper's inefficiency).
  EXPECT_LT(fed.mean_utilization, 0.2);
  const ArchitectureMetrics integ = evaluate(synthesize_integrated(net));
  EXPECT_GT(integ.mean_utilization, fed.mean_utilization);
}

TEST(Evaluation, BusLoadsFeasible) {
  const auto net = reference_function_network();
  EXPECT_TRUE(evaluate(synthesize_federated(net)).buses_feasible);
  EXPECT_TRUE(evaluate(synthesize_integrated(net)).buses_feasible);
}

TEST(Evaluation, LocalSignalDetection) {
  FunctionNetwork net;
  net.functions.push_back({"a", Domain::kComfort, Criticality::kQm, 10000, 100});
  net.functions.push_back({"b", Domain::kComfort, Criticality::kQm, 10000, 100});
  net.signals.push_back({"a->b", 0, 1, 8, 10000});
  const Architecture integ = synthesize_integrated(net);
  ASSERT_EQ(integ.ecus.size(), 1u);
  EXPECT_TRUE(integ.signal_is_local(net.signals[0]));
  const ArchitectureMetrics m = evaluate(integ);
  EXPECT_EQ(m.local_signals, 1u);
  EXPECT_EQ(m.cross_ecu_signals, 0u);
}

// ----------------------------------------------------------------- cosim ----

TEST(CoSim, ShortUrbanDriveBindsAllLayers) {
  VehicleSystemConfig cfg;
  VehicleSystem vs(cfg);
  // A trimmed cycle keeps the test fast.
  ev::powertrain::CycleBuilder b("short");
  b.ramp_to(40.0, 15.0).cruise(30.0).stop(10.0, 5.0);
  const auto cycle = std::move(b).build();
  const CoSimResult r = vs.run(cycle);

  EXPECT_GT(r.cycle.distance_km, 0.2);
  EXPECT_GT(r.bms_frames_published, 100u);
  // Real pack data reached the infotainment domain through the gateway.
  EXPECT_GT(r.bms_frames_at_hmi, 100u);
  EXPECT_GT(r.bms_to_hmi_latency_ms, 0.0);
  EXPECT_LT(r.bms_to_hmi_latency_ms, 50.0);
  // The range SOA service was exercised and answers plausibly.
  EXPECT_GT(r.range_service_calls, 0u);
  EXPECT_GT(r.last_range_km, 10.0);
}

TEST(CoSim, NetworkCarriesBackgroundTraffic) {
  VehicleSystemConfig cfg;
  VehicleSystem vs(cfg);
  ev::powertrain::CycleBuilder b("mini");
  b.ramp_to(30.0, 10.0).stop(8.0, 2.0);
  (void)vs.run(std::move(b).build());
  for (auto* bus : vs.network().buses()) EXPECT_GT(bus->delivered_count(), 0u);
}

TEST(CoSim, NonPositiveTimingConfigThrows) {
  VehicleSystemConfig cfg;
  cfg.control_period_s = 0.0;
  EXPECT_THROW(VehicleSystem{cfg}, std::invalid_argument);
  cfg = VehicleSystemConfig{};
  cfg.control_period_s = -0.1;
  EXPECT_THROW(VehicleSystem{cfg}, std::invalid_argument);
  cfg = VehicleSystemConfig{};
  cfg.bms_publish_period_s = 0.0;
  EXPECT_THROW(VehicleSystem{cfg}, std::invalid_argument);
  cfg = VehicleSystemConfig{};
  cfg.middleware_frame_us = 0;
  EXPECT_THROW(VehicleSystem{cfg}, std::invalid_argument);
  cfg = VehicleSystemConfig{};
  EXPECT_NO_THROW(VehicleSystem{cfg});
}

// ------------------------------------------------------------- subsystems ----

ev::powertrain::DriveCycle short_cycle() {
  // Gentle enough (slow ramp, soft braking) that a fault-free drive stays
  // in normal mode, but fast enough (60 km/h cruise) that the limp-home
  // speed cap (~45 km/h) bites.
  ev::powertrain::CycleBuilder b("short");
  b.ramp_to(60.0, 15.0).cruise(25.0).stop(20.0, 5.0);
  return std::move(b).build();
}

TEST(Subsystems, FindSubsystemLocatesAttachedAdapters) {
  VehicleSystem vs{VehicleSystemConfig{}};
  EXPECT_EQ(vs.find_subsystem<ObservabilitySubsystem>(), nullptr);
  auto& obs = vs.attach(std::make_unique<ObservabilitySubsystem>());
  EXPECT_EQ(vs.find_subsystem<ObservabilitySubsystem>(), &obs);
  EXPECT_EQ(vs.find_subsystem<FaultsSubsystem>(), nullptr);
}

TEST(Subsystems, SnapshotsLandInCoSimResult) {
  VehicleSystem vs{VehicleSystemConfig{}};
  (void)vs.attach(std::make_unique<ObservabilitySubsystem>());
  (void)vs.attach(std::make_unique<HealthSubsystem>());
  const CoSimResult r = vs.run(short_cycle());
  ASSERT_EQ(r.subsystems.size(), 2u);
  EXPECT_EQ(r.subsystems[0].name, "obs");
  EXPECT_EQ(r.subsystems[1].name, "health");
  // The obs snapshot carries a non-trivial event count.
  ASSERT_FALSE(r.subsystems[0].values.empty());
  EXPECT_EQ(r.subsystems[0].values[0].first, "events_dispatched");
  EXPECT_GT(r.subsystems[0].values[0].second, 1000.0);
}

// The obs registry's sim.* metrics are the kernel's own counts, copied in
// after each run (the kernel is not hooked per event).
TEST(Subsystems, ObsSimCountersEqualTheKernel) {
  VehicleSystem vs{VehicleSystemConfig{}};
  auto& obs = static_cast<ObservabilitySubsystem&>(
      vs.attach(std::make_unique<ObservabilitySubsystem>()));
  (void)vs.attach(std::make_unique<HealthSubsystem>());
  (void)vs.run(short_cycle());
  const ev::obs::MetricsRegistry& reg = obs.metrics();
  const ev::sim::Simulator& sim = vs.simulator();
  EXPECT_EQ(reg.counter_value(reg.find("sim.events_scheduled")), sim.scheduled());
  EXPECT_EQ(reg.counter_value(reg.find("sim.events_dispatched")), sim.dispatched());
  EXPECT_EQ(reg.counter_value(reg.find("sim.events_cancelled")), sim.cancelled());
  EXPECT_EQ(reg.gauge_value(reg.find("sim.queue_depth.peak")),
            static_cast<double>(sim.peak_pending()));
  EXPECT_GT(sim.dispatched(), sim.scheduled());  // periodic re-arms are not schedules
  EXPECT_GT(sim.cancelled(), 0u);  // run() cancels its own periodics
  EXPECT_FALSE(reg.contains("sim.dispatch_delay_us"));
}

TEST(Subsystems, ScenarioBusFaultsEscalateToLimpHomeMidDrive) {
  ev::config::ScenarioSpec spec;
  spec.powertrain.seed = 7;
  spec.subsystems.obs = false;
  spec.subsystems.faults = true;
  spec.subsystems.health = true;
  spec.fault_seed = 42;
  using ev::config::FaultEventSpec;
  using ev::config::FaultKind;
  spec.faults = {
      FaultEventSpec{2.0, FaultKind::kBusCorrupt, "safety_can", 4.0},
      FaultEventSpec{4.0, FaultKind::kBusCorrupt, "safety_can", 4.0},
      FaultEventSpec{6.0, FaultKind::kBusOff, "safety_can", 0.05},
  };

  // Same trimmed mission, clean vs faulted, through the composition root.
  ev::config::ScenarioSpec clean = spec;
  clean.faults.clear();
  auto clean_vehicle = build_vehicle(clean);
  const CoSimResult clean_r = clean_vehicle->run(short_cycle());

  auto vehicle = build_vehicle(spec);
  const CoSimResult faulted_r = vehicle->run(short_cycle());

  auto* faults = vehicle->find_subsystem<FaultsSubsystem>();
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(faults->plan().injections().size(), 3u);
  EXPECT_EQ(faults->degradation().mode(), ev::faults::DriveMode::kLimpHome);

  // The escalation happened mid-drive, stepwise, for network causes.
  const auto& changes = faults->mode_changes();
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].to, ev::faults::DriveMode::kDerated);
  EXPECT_EQ(changes[1].to, ev::faults::DriveMode::kLimpHome);
  EXPECT_GT(changes[0].t_s, 1.0);
  EXPECT_LT(changes[1].t_s, faulted_r.cycle.duration_s);
  EXPECT_EQ(changes[1].cause, "bus_faults");

  // Limp-home torque/speed limits show up in the drive ledger: same mission
  // time, strictly less ground covered once the limits bite.
  EXPECT_LT(faults->degradation().torque_limit_fraction(), 1.0);
  EXPECT_LT(faulted_r.cycle.distance_km, 0.99 * clean_r.cycle.distance_km);

  // Clean twin stayed in normal mode.
  auto* clean_faults = clean_vehicle->find_subsystem<FaultsSubsystem>();
  EXPECT_EQ(clean_faults->degradation().mode(), ev::faults::DriveMode::kNormal);
}

TEST(Subsystems, ResultJsonIsDeterministic) {
  ev::config::ScenarioSpec spec;
  spec.subsystems.obs = false;
  spec.subsystems.health = true;
  auto run_once = [&] {
    auto vehicle = build_vehicle(spec);
    ScenarioRunResult result;
    result.scenario = spec.name;
    result.cosim = vehicle->run(short_cycle());
    return result_json(result);
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Subsystems, UnknownFaultTargetThrowsOnRun) {
  ev::config::ScenarioSpec spec;
  spec.subsystems.obs = false;
  spec.subsystems.faults = true;
  spec.faults = {ev::config::FaultEventSpec{
      1.0, ev::config::FaultKind::kBusDrop, "warp_bus", 1.0}};
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(Subsystems, StuckVoltageCellOutsidePackThrowsBeforeSimulating) {
  // `evsys check` rejects these targets (fault.unknown_target); `run` must
  // reject the same ones with the same grammar, before any simulated time:
  // build_vehicle throws, so no vehicle exists to run.
  ev::config::ScenarioSpec spec;
  spec.subsystems.obs = false;
  spec.subsystems.faults = true;
  const std::string pack_cells =
      std::to_string(spec.pack.module_count * spec.pack.cells_per_module);
  for (const std::string& target :
       {std::string("-1"), std::string("18446744073709551615"), pack_cells,
        std::string("+3"), std::string("3x")}) {
    spec.faults = {ev::config::FaultEventSpec{
        3.0, ev::config::FaultKind::kSensorStuck, target, 3.7}};
    try {
      (void)build_vehicle(spec);
      ADD_FAILURE() << "target '" << target << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + target + "'"), std::string::npos)
          << e.what();
    }
  }
  // The last cell of the pack is a valid target.
  spec.faults = {ev::config::FaultEventSpec{
      3.0, ev::config::FaultKind::kSensorStuck,
      std::to_string(spec.pack.module_count * spec.pack.cells_per_module - 1), 3.7}};
  EXPECT_NO_THROW((void)build_vehicle(spec)->run(short_cycle()));
}

TEST(Subsystems, BadFaultTargetsThrowInBuildEvenWithFaultsOff) {
  // tests/data/bad_targets.scn, inline: four targets the vehicle lacks, with
  // the fault subsystem off. Targets are resolved regardless, so the build
  // fails on the first, with the message `evsys check` reports for it.
  const ev::config::ScenarioSpec spec = ev::config::ScenarioSpec::from_text(
      "scenario.name = bad_targets\n"
      "subsystems.faults = false\n"
      "fault.0 = 1 bus.drop warp_bus 2\n"
      "fault.1 = 2 partition.crash navigation 0\n"
      "fault.2 = 3 bms.stuck_voltage 9999 3.7\n"
      "fault.3 = 4 bus.error_rate body_lin 5\n");
  ASSERT_FALSE(spec.subsystems.faults);
  try {
    (void)build_vehicle(spec);
    ADD_FAILURE() << "build_vehicle accepted four unknown fault targets";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "fault[0]: bus.drop targets unknown bus 'warp_bus'");
  }
}

}  // namespace

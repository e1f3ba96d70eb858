// Unit tests for the bound-vs-observation oracle: which surfaces a fault
// plan excludes, soundness on a clean drive, and the CAN error testbed.
// The exclusion cases reuse one simulated run and vary only the fault list,
// which is an input of bound_checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ev/analysis/analyzer.h"
#include "ev/analysis/oracle.h"
#include "ev/analysis/prob.h"
#include "ev/config/scenario.h"
#include "ev/core/cosim.h"
#include "ev/core/scenario.h"

namespace {

using ev::analysis::BoundCheck;
using ev::analysis::BoundSurface;
using ev::config::FaultEventSpec;
using ev::config::FaultKind;

/// One clean urban drive with every histogram the oracle reads, simulated
/// once for the whole suite.
struct CleanRun {
  ev::analysis::VehicleModel model;
  ev::analysis::Report report;
  std::unique_ptr<ev::core::VehicleSystem> vehicle;

  std::vector<BoundCheck> checks(const std::vector<FaultEventSpec>& faults) const {
    return ev::analysis::bound_checks(model, report, *vehicle, faults);
  }
};

const CleanRun& clean_run() {
  static const CleanRun run = [] {
    ev::config::ScenarioSpec spec;
    spec.name = "oracle-urban";
    spec.drive.cycle = ev::config::CycleKind::kUrban;
    spec.subsystems.obs = true;
    spec.subsystems.health = true;
    spec.subsystems.security = true;
    CleanRun out;
    out.model = ev::analysis::extract_model(spec);
    out.report = ev::analysis::analyze(out.model);
    (void)ev::core::run_scenario(spec, &out.vehicle);
    return out;
  }();
  return run;
}

std::set<std::string> bus_subjects(const std::vector<BoundCheck>& checks) {
  std::set<std::string> subjects;
  for (const BoundCheck& check : checks)
    if (check.surface == BoundSurface::kBusFrame) subjects.insert(check.subject);
  return subjects;
}

bool has_surface(const std::vector<BoundCheck>& checks, BoundSurface surface) {
  return std::any_of(checks.begin(), checks.end(),
                     [surface](const BoundCheck& c) { return c.surface == surface; });
}

// ------------------------------------------------------ deterministic bounds ----

TEST(Oracle, CleanUrbanDriveIsSoundOnEverySurface) {
  const std::vector<BoundCheck> checks = clean_run().checks({});
  for (const BoundCheck& check : checks) {
    EXPECT_TRUE(check.sound()) << check.subject << ": " << check.observed_us << " > "
                               << check.bound_us;
    EXPECT_GT(check.samples, 0u) << check.subject;
  }
  EXPECT_EQ(bus_subjects(checks),
            (std::set<std::string>{"body_lin", "comfort_can", "infotainment_most",
                                   "safety_can", "chassis_flexray"}));
  EXPECT_TRUE(has_surface(checks, BoundSurface::kPubSub));
  EXPECT_TRUE(has_surface(checks, BoundSurface::kGatewayHop));
  // Fixed order: buses in model order, then pub/sub, then the gateway.
  ASSERT_GE(checks.size(), 2u);
  EXPECT_EQ(checks[checks.size() - 2].surface, BoundSurface::kPubSub);
  EXPECT_EQ(checks.back().surface, BoundSurface::kGatewayHop);
}

TEST(Oracle, BusFaultExcludesTheBusAndItsRouteDestinations) {
  // comfort_can routes into infotainment_most only.
  const std::vector<BoundCheck> comfort =
      clean_run().checks({{1.0, FaultKind::kBusDrop, "comfort_can", 2.0}});
  EXPECT_EQ(bus_subjects(comfort),
            (std::set<std::string>{"body_lin", "safety_can", "chassis_flexray"}));
  EXPECT_TRUE(has_surface(comfort, BoundSurface::kPubSub));

  // safety_can -> chassis_flexray -> {comfort_can, infotainment_most}: the
  // exclusion follows routes transitively.
  const std::vector<BoundCheck> safety =
      clean_run().checks({{1.0, FaultKind::kBusErrorRate, "safety_can", 50.0}});
  EXPECT_EQ(bus_subjects(safety), (std::set<std::string>{"body_lin"}));
}

TEST(Oracle, PartitionFaultExcludesOnlyPubSub) {
  const std::vector<BoundCheck> clean = clean_run().checks({});
  const std::vector<BoundCheck> faulted =
      clean_run().checks({{2.0, FaultKind::kPartitionCrash, "information", 0.0}});
  EXPECT_FALSE(has_surface(faulted, BoundSurface::kPubSub));
  EXPECT_EQ(faulted.size() + 1, clean.size());
  EXPECT_EQ(bus_subjects(faulted), bus_subjects(clean));
  EXPECT_TRUE(has_surface(faulted, BoundSurface::kGatewayHop));
}

TEST(Oracle, AnyBusFaultExcludesTheGateway) {
  // body_lin routes nowhere, so only its own pair and the gateway go.
  const std::vector<BoundCheck> faulted =
      clean_run().checks({{3.0, FaultKind::kBusBabble, "body_lin", 0.1}});
  EXPECT_FALSE(has_surface(faulted, BoundSurface::kGatewayHop));
  EXPECT_TRUE(has_surface(faulted, BoundSurface::kPubSub));
  EXPECT_EQ(bus_subjects(faulted),
            (std::set<std::string>{"comfort_can", "infotainment_most", "safety_can",
                                   "chassis_flexray"}));
  // A sensor fault perturbs no timing surface.
  EXPECT_EQ(clean_run().checks({{3.0, FaultKind::kSensorStuck, "0", 3.6}}).size(),
            clean_run().checks({}).size());
}

// ----------------------------------------------------------- CAN testbed ----

TEST(Oracle, TestbedIsDeterministicAndConserving) {
  ev::config::ScenarioSpec spec;
  spec.network.can_bit_rate = 125e3;
  spec.subsystems.faults = true;
  spec.faults = {{0.0, FaultKind::kBusErrorRate, "safety_can", 300.0},
                 {0.0, FaultKind::kBusErrorProb, "comfort_can", 0.02}};
  const ev::analysis::VehicleModel model = ev::analysis::extract_model(spec);
  ev::analysis::ProbabilisticCanAnalyzer analyzer(model);
  const std::vector<std::size_t> buses = ev::analysis::armed_can_buses(analyzer);
  ASSERT_EQ(buses, (std::vector<std::size_t>{1, 3}));

  for (const std::size_t b : buses) {
    const auto run = [&](std::uint64_t seed) {
      return ev::analysis::run_prob_testbed(model, b, analyzer.error_models()[b], seed,
                                            2.0, 1.0);
    };
    const std::vector<ev::analysis::FrameTally> a = run(7);
    const std::vector<ev::analysis::FrameTally> again = run(7);
    ASSERT_EQ(a.size(), analyzer.bus_outcome(b).frames.size());
    ASSERT_EQ(a.size(), again.size());
    std::size_t sent = 0;
    for (std::size_t s = 0; s < a.size(); ++s) {
      EXPECT_EQ(a[s].sent, again[s].sent);
      EXPECT_EQ(a[s].delivered, again[s].delivered);
      EXPECT_EQ(a[s].missed, again[s].missed);
      EXPECT_LE(a[s].missed, a[s].delivered);
      EXPECT_LE(a[s].delivered, a[s].sent);
      sent += a[s].sent;
    }
    EXPECT_GT(sent, 0u);
  }
}

TEST(Oracle, HoeffdingToleranceShrinksWithSamples) {
  EXPECT_EQ(ev::analysis::hoeffding_tolerance(0), 1.0);
  double previous = ev::analysis::hoeffding_tolerance(1);
  for (const std::size_t n : {2u, 10u, 100u, 10000u}) {
    const double tolerance = ev::analysis::hoeffding_tolerance(n);
    EXPECT_LT(tolerance, previous) << n;
    EXPECT_GT(tolerance, 0.0) << n;
    previous = tolerance;
  }
}

}  // namespace

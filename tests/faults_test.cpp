// Unit and end-to-end tests for the fault-injection subsystem: the seeded
// FaultPlan, the bus/sensor/partition injector hooks, the middleware
// HealthMonitor watchdog, and the vehicle-level DegradationManager. The
// end-to-end cases mirror the E17 experiment: each injected fault must be
// detected by the *regular* detection chain (CRC, debounce, heartbeat) and
// drive the mode machine through the expected transitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "ev/bms/battery_manager.h"
#include "ev/bywire/redundancy.h"
#include "ev/faults/degradation.h"
#include "ev/faults/fault_plan.h"
#include "ev/faults/grid_faults.h"
#include "ev/faults/network_faults.h"
#include "ev/middleware/health.h"
#include "ev/middleware/middleware.h"
#include "ev/network/can.h"
#include "ev/obs/metrics.h"
#include "ev/powertrain/drive_cycle.h"
#include "ev/powertrain/simulation.h"
#include "ev/sim/simulator.h"
#include "ev/util/rng.h"

namespace {

using ev::faults::DegradationManager;
using ev::faults::DegradationPolicy;
using ev::faults::DriveMode;
using ev::faults::FaultPlan;
using ev::sim::Simulator;
using ev::sim::Time;

// ------------------------------------------------------- bus fault hooks ----

TEST(BusFaults, DropDiscardsExactlyRequestedFrames) {
  Simulator sim;
  ev::network::CanBus bus(sim, "can");
  int delivered = 0;
  bus.subscribe([&](const ev::network::Frame&, Time) { ++delivered; });
  bus.inject_drop(2);
  for (int i = 0; i < 5; ++i) {
    ev::network::Frame f;
    f.id = static_cast<std::uint32_t>(i);
    f.source = 1;
    ASSERT_TRUE(bus.send(f));
  }
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(bus.fault_dropped_count(), 2u);
}

TEST(BusFaults, CorruptionIsDetectedByCrcAndDiscarded) {
  Simulator sim;
  ev::network::CanBus bus(sim, "can");
  int delivered = 0;
  bus.subscribe([&](const ev::network::Frame&, Time) { ++delivered; });
  bus.inject_corruption(1);
  ev::network::Frame f;
  f.id = 1;
  f.source = 1;
  f.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  f.payload_size = f.payload.size();
  ASSERT_TRUE(bus.send(f));
  sim.run();
  EXPECT_EQ(delivered, 0);  // CRC mismatch -> receiver discards
  EXPECT_EQ(bus.fault_corrupted_count(), 1u);
}

TEST(BusFaults, BusOffRejectsSendsUntilRecovery) {
  Simulator sim;
  ev::network::CanBus bus(sim, "can");
  int delivered = 0;
  bus.subscribe([&](const ev::network::Frame&, Time) { ++delivered; });
  bus.inject_bus_off(Time::ms(10));
  EXPECT_TRUE(bus.bus_off());
  ev::network::Frame f;
  f.id = 1;
  f.source = 1;
  EXPECT_FALSE(bus.send(f));
  EXPECT_EQ(bus.busoff_rejected_count(), 1u);
  // After the recovery window the medium accepts traffic again.
  sim.schedule_at(Time::ms(11), [&] {
    EXPECT_FALSE(bus.bus_off());
    ev::network::Frame g;
    g.id = 2;
    g.source = 1;
    EXPECT_TRUE(bus.send(g));
  });
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(BusFaults, HappyPathCountersStayZero) {
  Simulator sim;
  ev::network::CanBus bus(sim, "can");
  bus.subscribe([](const ev::network::Frame&, Time) {});
  for (int i = 0; i < 20; ++i) {
    ev::network::Frame f;
    f.id = static_cast<std::uint32_t>(i);
    f.source = 1;
    ASSERT_TRUE(bus.send(f));
  }
  sim.run();
  EXPECT_EQ(bus.fault_dropped_count(), 0u);
  EXPECT_EQ(bus.fault_corrupted_count(), 0u);
  EXPECT_EQ(bus.busoff_rejected_count(), 0u);
  EXPECT_EQ(bus.delivered_count(), 20u);
}

// -------------------------------------------------------- degradation ----

TEST(DegradationManager, EscalatesAndLatches) {
  Simulator sim;
  DegradationManager deg(sim);
  EXPECT_EQ(deg.mode(), DriveMode::kNormal);
  EXPECT_DOUBLE_EQ(deg.torque_limit_fraction(), 1.0);

  deg.on_bms(ev::bms::SafetyAction::kDerate);
  EXPECT_EQ(deg.mode(), DriveMode::kDerated);

  ev::motor::FaultDiagnosis diag;
  diag.phase = 1;
  deg.on_motor(diag);
  EXPECT_EQ(deg.mode(), DriveMode::kLimpHome);

  // Weaker evidence never de-escalates.
  deg.on_bms(ev::bms::SafetyAction::kDerate);
  EXPECT_EQ(deg.mode(), DriveMode::kLimpHome);
  EXPECT_LT(deg.torque_limit_fraction(), 0.5);
  EXPECT_LT(deg.speed_limit_mps(), 20.0);

  deg.on_bms(ev::bms::SafetyAction::kOpenContactor);
  EXPECT_EQ(deg.mode(), DriveMode::kSafeStop);
  EXPECT_DOUBLE_EQ(deg.torque_limit_fraction(), 0.0);
  EXPECT_EQ(deg.transitions(), 3u);
}

TEST(DegradationManager, BywireVoteMapsToModes) {
  Simulator sim;
  DegradationManager deg(sim);
  ev::bywire::VoteResult vote;
  vote.valid = true;
  vote.disagreeing = 1;
  deg.on_bywire(vote);
  EXPECT_EQ(deg.mode(), DriveMode::kDerated);
  vote.valid = false;
  deg.on_bywire(vote);
  EXPECT_EQ(deg.mode(), DriveMode::kSafeStop);
}

TEST(DegradationManager, RepeatedRestartsEscalateToLimpHome) {
  Simulator sim;
  DegradationManager deg(sim);
  deg.on_partition_restart();
  EXPECT_EQ(deg.mode(), DriveMode::kDerated);
  deg.on_partition_restart();
  deg.on_partition_restart();
  EXPECT_EQ(deg.mode(), DriveMode::kLimpHome);
}

TEST(DegradationManager, ListenerSeesTransitions) {
  Simulator sim;
  DegradationManager deg(sim);
  std::vector<std::string> causes;
  deg.set_listener([&](DriveMode, DriveMode, const std::string& cause) {
    causes.push_back(cause);
  });
  deg.on_bus_fault();
  deg.on_bus_fault();
  deg.on_bus_fault();
  ASSERT_EQ(causes.size(), 2u);
  EXPECT_EQ(causes[0], "bus_fault");
  EXPECT_EQ(causes[1], "bus_faults");
}

// --------------------------------------------------------- fault plan ----

TEST(FaultPlan, SameSeedSameSchedule) {
  auto build = [](std::uint64_t seed) {
    FaultPlan plan(seed);
    std::vector<std::int64_t> times;
    for (int i = 0; i < 8; ++i)
      times.push_back(static_cast<std::int64_t>(plan.rng().uniform() * 1e6));
    return times;
  };
  EXPECT_EQ(build(42), build(42));
  EXPECT_NE(build(42), build(43));
}

TEST(FaultPlan, FiresActionsAtExactTimesAndRecordsThem) {
  Simulator sim;
  FaultPlan plan(7);
  int fired = 0;
  plan.add(Time::ms(5), "first", [&] { ++fired; });
  plan.add(Time::ms(9), "second", [&] { ++fired; });
  plan.arm(sim);
  sim.run();
  EXPECT_EQ(fired, 2);
  ASSERT_EQ(plan.injections().size(), 2u);
  EXPECT_EQ(plan.injections()[0].label, "first");
  EXPECT_EQ(plan.injections()[0].at, Time::ms(5));
  EXPECT_EQ(plan.injections()[1].label, "second");
}

TEST(FaultPlan, RejectsAddAfterArm) {
  Simulator sim;
  FaultPlan plan(1);
  plan.add(Time::ms(1), "x", [] {});
  plan.arm(sim);
  EXPECT_THROW(plan.add(Time::ms(2), "y", [] {}), std::logic_error);
}

// ------------------------------------------------------ health monitor ----

TEST(HealthMonitor, DetectsCrashAndRestartsPartition) {
  using namespace ev::middleware;
  Simulator sim;
  ev::obs::MetricsRegistry metrics;
  Middleware mw(sim, "vcu", 10000);
  const std::size_t app = mw.create_partition("app", 3000);
  mw.deploy(app, Runnable{"work", 10000, 100, [] { return RunOutcome::kOk; }});

  HealthMonitor health(sim, mw);
  health.attach_observer(metrics);
  health.start();
  mw.start();

  sim.schedule_at(Time::ms(50), [&] { mw.partition(app).inject_crash(); });
  sim.run_until(Time::ms(200));

  EXPECT_EQ(health.restarts(), 1u);
  EXPECT_EQ(mw.partition(app).health(), PartitionHealth::kHealthy);
  EXPECT_GE(health.heartbeat_misses(), 2u);
  // Detection latency was recorded.
  const auto& stats =
      metrics.histogram_stats(metrics.histogram("mw.vcu.health.detection_latency_us", 0.0,
                                                1e6, 64));
  EXPECT_EQ(stats.count(), 1u);
  // The partition keeps beating after the restart.
  const std::uint64_t beats = health.heartbeats(app);
  sim.run_until(Time::ms(300));
  EXPECT_GT(health.heartbeats(app), beats);
}

TEST(HealthMonitor, DetectsHangEvenThoughPartitionLooksHealthy) {
  using namespace ev::middleware;
  Simulator sim;
  Middleware mw(sim, "vcu", 10000);
  const std::size_t app = mw.create_partition("app", 3000);

  HealthMonitor health(sim, mw);
  health.start();
  mw.start();

  sim.schedule_at(Time::ms(40), [&] { mw.partition(app).inject_hang(100); });
  sim.run_until(Time::ms(120));
  // A hung partition never reports kStopped — only the heartbeat reveals it.
  EXPECT_GE(health.restarts(), 1u);
}

// ------------------------------------------------------ network watcher ----

TEST(NetworkHealthWatcher, BabblingIdiotDrivesDegradation) {
  using ev::faults::BabblingIdiot;
  using ev::faults::NetworkHealthWatcher;
  Simulator sim;
  DegradationManager deg(sim);
  ev::network::CanBus bus(sim, "can", 125e3);
  // Background traffic at a modest rate.
  sim.schedule_periodic(Time::us(500), Time::ms(10), [&] {
    ev::network::Frame f;
    f.id = 0x200;
    f.source = 2;
    (void)bus.send(f);
  });
  NetworkHealthWatcher watcher(sim, deg, {/*poll_period_us=*/5000,
                                          /*utilization_limit=*/0.5});
  watcher.watch(bus);
  watcher.start();

  BabblingIdiot idiot(sim, bus, /*id=*/0, /*period_us=*/200);
  sim.schedule_at(Time::ms(50), [&] { idiot.start(); });
  sim.run_until(Time::ms(500));

  EXPECT_GT(idiot.frames_sent(), 100u);
  EXPECT_GE(watcher.faults_reported(), 1u);
  EXPECT_GE(deg.mode(), DriveMode::kDerated);
}

TEST(NetworkHealthWatcher, ReportsBusOffAndCorruptionEpisodes) {
  using ev::faults::NetworkHealthWatcher;
  Simulator sim;
  DegradationManager deg(sim);
  ev::network::CanBus bus(sim, "can");
  NetworkHealthWatcher watcher(sim, deg, {/*poll_period_us=*/1000,
                                          /*utilization_limit=*/0.99});
  watcher.watch(bus);
  watcher.start();
  sim.schedule_at(Time::ms(5), [&] { bus.inject_bus_off(Time::ms(3)); });
  sim.schedule_at(Time::ms(20), [&] {
    bus.inject_corruption(1);
    ev::network::Frame f;
    f.id = 1;
    f.source = 1;
    f.payload = {0x42};
    f.payload_size = 1;
    (void)bus.send(f);
  });
  sim.run_until(Time::ms(40));
  EXPECT_GE(watcher.faults_reported(), 2u);
}

// ------------------------------------------------- end-to-end detection ----

// Injected BMS sensor fault -> SafetyMonitor debounce -> DegradationManager.
TEST(EndToEnd, StuckVoltageSensorDeratesVehicle) {
  Simulator sim;
  DegradationManager deg(sim);
  FaultPlan plan(11);
  plan.set_degradation(&deg);
  ev::obs::MetricsRegistry metrics;
  deg.attach_observer(metrics);

  ev::util::Rng rng(31);
  ev::battery::PackConfig pc;
  pc.initial_soc = 0.7;
  ev::battery::Pack pack(pc, rng);
  ev::bms::BmsConfig bc;
  bc.initial_soc_estimate = 0.7;
  ev::bms::BatteryManager bms(pack, bc);

  // Stuck-at-5V voltage sensor on cell 3, injected off-phase between BMS
  // periods so the detection latency is a real, nonzero delay.
  ev::battery::SensorFault stuck;
  stuck.mode = ev::battery::SensorFaultMode::kStuckAt;
  stuck.stuck_value = 5.0;
  plan.add(Time::us(105000), "bms_stuck_sensor",
           [&] { bms.inject_voltage_sensor_fault(3, stuck); });
  plan.arm(sim);

  // 10 ms BMS period driven by the simulator.
  sim.schedule_periodic(Time::ms(10), Time::ms(10), [&] {
    (void)pack.step(10.0, 0.01);
    deg.on_bms(bms.step(pack, 0.01, rng).action);
  });
  sim.run_until(Time::ms(400));

  // The 5 V reading enters the warn band at the first post-fault sample
  // (kDerate) and latches overvoltage after the debounce window (kSafeStop).
  EXPECT_EQ(deg.mode(), DriveMode::kSafeStop);
  EXPECT_FALSE(bms.safety().faults().empty());
  // Detection latency (injection -> first escalation) landed in the
  // histogram: the injection sits 5 ms before the next BMS period.
  const auto& stats = metrics.histogram_stats(
      metrics.histogram("deg.detection_latency_us", 0.0, 1e7, 64));
  ASSERT_EQ(stats.count(), 1u);
  EXPECT_GE(stats.min(), 5000.0);
}

// Partition crash -> heartbeat silence -> watchdog restart -> degradation.
TEST(EndToEnd, PartitionCrashDeratesVehicle) {
  using namespace ev::middleware;
  Simulator sim;
  DegradationManager deg(sim);
  FaultPlan plan(13);
  plan.set_degradation(&deg);
  ev::obs::MetricsRegistry metrics;
  deg.attach_observer(metrics);

  Middleware mw(sim, "vcu", 10000);
  const std::size_t app = mw.create_partition("app", 3000);
  HealthMonitor health(sim, mw);
  health.set_listener([&](std::size_t, HealthEvent event, Time) {
    if (event == HealthEvent::kRestart) deg.on_partition_restart();
  });
  health.start();
  mw.start();

  plan.add(Time::ms(70), "partition_crash", [&] { mw.partition(app).inject_crash(); });
  plan.arm(sim);
  sim.run_until(Time::ms(300));

  EXPECT_EQ(health.restarts(), 1u);
  EXPECT_EQ(deg.mode(), DriveMode::kDerated);
  const auto& stats = metrics.histogram_stats(
      metrics.histogram("deg.detection_latency_us", 0.0, 1e7, 64));
  EXPECT_EQ(stats.count(), 1u);
}

// Babbling idiot -> utilization episode -> degradation, via the fault plan.
TEST(EndToEnd, BabblingIdiotLimpsHomeAfterRepeatedEpisodes) {
  using ev::faults::BabblingIdiot;
  using ev::faults::NetworkHealthWatcher;
  Simulator sim;
  DegradationManager deg(sim);
  ev::network::CanBus bus(sim, "can", 125e3);
  NetworkHealthWatcher watcher(sim, deg, {/*poll_period_us=*/5000,
                                          /*utilization_limit=*/0.5});
  watcher.watch(bus);
  watcher.start();
  BabblingIdiot idiot(sim, bus, 0, 200);

  FaultPlan plan(17);
  plan.set_degradation(&deg);
  plan.add(Time::ms(20), "babble_start", [&] { idiot.start(); });
  // Keep injecting secondary faults; repeated episodes reach limp-home.
  plan.add(Time::ms(100), "bus_corruption", [&] { bus.inject_corruption(3); });
  plan.add(Time::ms(150), "bus_off", [&] { bus.inject_bus_off(Time::ms(5)); });
  plan.arm(sim);
  sim.run_until(Time::ms(400));

  EXPECT_GE(watcher.faults_reported(), 3u);
  EXPECT_EQ(deg.mode(), DriveMode::kLimpHome);
  EXPECT_EQ(plan.injections().size(), 3u);
}

// Degradation limits actually constrain the powertrain plant.
TEST(EndToEnd, DriveLimitsConstrainPowertrain) {
  ev::powertrain::PowertrainSimulation sim_free;
  ev::powertrain::PowertrainSimulation sim_limited;
  sim_limited.set_drive_limits(0.2, 12.5);
  double v_free = 0.0, v_limited = 0.0;
  for (int i = 0; i < 600; ++i) {
    v_free = sim_free.step(40.0).speed_mps;
    v_limited = sim_limited.step(40.0).speed_mps;
  }
  EXPECT_GT(v_free, 20.0);       // unconstrained plant approaches the target
  EXPECT_LE(v_limited, 13.0);    // limp-home plant respects the speed cap
}

// --- GridFaultTimeline ------------------------------------------------------

// The fleet loop keeps the grid state it last read until changed_between()
// fires, so that test must be exact: over random timelines with
// overlapping, zero-duration and off-grid events, whenever it is false the
// three queries answer the same at both ends of the interval.
TEST(GridFaultTimeline, UnchangedIntervalAnswersTheSame) {
  using ev::faults::GridFaultEvent;
  using ev::faults::GridFaultKind;
  constexpr std::size_t kFeeders = 4;
  constexpr std::size_t kStations = 20;
  std::size_t unchanged = 0;
  std::size_t changed = 0;
  std::size_t degraded = 0;  // unchanged intervals with some fault active
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    ev::util::Rng rng(seed);
    std::vector<GridFaultEvent> events;
    std::vector<double> edges;
    const auto count = rng.uniform_int(1, 8);
    for (std::int64_t k = 0; k < count; ++k) {
      GridFaultEvent e;
      e.kind = static_cast<GridFaultKind>(rng.uniform_int(0, 2));
      // Half the events start on the 2.5 s tick grid, half between ticks.
      e.at_s = rng.uniform_int(0, 1) == 0 ? 2.5 * static_cast<double>(rng.uniform_int(0, 80))
                                          : rng.uniform(0.0, 200.0);
      switch (rng.uniform_int(0, 3)) {
        case 0: e.duration_s = 0.0; break;
        case 1: e.duration_s = rng.uniform(0.0, 2.5); break;  // may fit between ticks
        default: e.duration_s = rng.uniform(0.0, 100.0); break;
      }
      if (e.kind == GridFaultKind::kCommsBlackout) {
        e.target = static_cast<std::size_t>(rng.uniform_int(0, kStations - 1));
        e.value = static_cast<double>(rng.uniform_int(0, 8));
      } else {
        e.target = static_cast<std::size_t>(rng.uniform_int(0, kFeeders - 1));
        e.value = rng.uniform(0.0, 1.2);  // drops above 1 clamp to 0 capacity
      }
      edges.push_back(e.at_s);
      edges.push_back(e.at_s + e.duration_s);
      events.push_back(e);
    }
    const ev::faults::GridFaultTimeline timeline(events);

    // Interval ends: tick instants, random instants and the event edges
    // themselves, so a and b land on, just before and just after boundaries.
    std::vector<double> points;
    for (int tick = 0; tick <= 120; ++tick) points.push_back(2.5 * tick);
    for (int i = 0; i < 60; ++i) points.push_back(rng.uniform(0.0, 300.0));
    for (const double edge : edges) {
      points.push_back(edge);
      points.push_back(std::nextafter(edge, -1.0));
      points.push_back(std::nextafter(edge, 1e9));
    }
    std::sort(points.begin(), points.end());
    for (int pair = 0; pair < 400; ++pair) {
      double a = points[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(points.size()) - 1))];
      double b = points[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(points.size()) - 1))];
      if (b < a) std::swap(a, b);
      if (timeline.changed_between(a, b)) {
        ++changed;
        continue;
      }
      ++unchanged;
      const double scale = timeline.capacity_scale(a);
      EXPECT_EQ(scale, timeline.capacity_scale(b)) << "seed " << seed << " (" << a << ", " << b << "]";
      bool any = scale != 1.0;
      for (std::size_t f = 0; f < kFeeders; ++f) {
        EXPECT_EQ(timeline.feeder_partitioned(f, a), timeline.feeder_partitioned(f, b))
            << "seed " << seed << " feeder " << f << " (" << a << ", " << b << "]";
        any = any || timeline.feeder_partitioned(f, a);
      }
      for (std::size_t st = 0; st < kStations; ++st) {
        EXPECT_EQ(timeline.station_blacked_out(st, a), timeline.station_blacked_out(st, b))
            << "seed " << seed << " station " << st << " (" << a << ", " << b << "]";
        any = any || timeline.station_blacked_out(st, a);
      }
      if (any) ++degraded;
    }
  }
  // Both answers of changed_between, and unchanged intervals inside an
  // active fault, must all have been exercised.
  EXPECT_GT(changed, 10000u);
  EXPECT_GT(unchanged, 10000u);
  EXPECT_GT(degraded, 1000u);
}

}  // namespace

// Tests for the fleet charging backend: the deterministic retry/backoff
// queue (budget exhaustion, jitter determinism), the ThrottleAlive heartbeat
// lease (boundary-exact expiry), the challenge-response authorization round
// trip, the grid-safety invariant under injected faults, and the
// byte-identical determinism of whole runs across worker counts.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ev/config/fleet.h"
#include "ev/fleet/central.h"
#include "ev/fleet/retry.h"
#include "ev/fleet/simulation.h"
#include "ev/fleet/station.h"
#include "ev/util/rng.h"

namespace {

using ev::config::FleetSpec;
using ev::config::GridFaultKindSpec;
using ev::config::GridFaultSpec;
using ev::fleet::FleetResult;
using ev::fleet::Message;
using ev::fleet::MessageType;
using ev::fleet::RetryPolicy;
using ev::fleet::RetryQueue;

// Report of MidTickFaultEdgesMatchGolden's spec.
constexpr const char* kMidTickGolden =
    R"({"fleet":"midtick","stations":12,"seed":7,"ticks":720,"sim_hours":0.5,)"
    R"("final_mode":"constrained","digest":"d4a64ff2",)"
    R"("grid":{"violations":0,"peak_draw_kw":6e+01,"min_headroom_kw":-7.105427357601002e-15,)"
    R"("final_capacity_kw":6e+01,"mode_ticks":{"normal":117,"constrained":566,"shed_load":6,)"
    R"("island":31}},)"
    R"("sessions":{"arrivals":19,"started":19,"completed":8,"rejected":0,"abandoned":0,)"
    R"("open_at_end":11,"energy_delivered_kwh":24.381134259259266,)"
    R"("billed_kwh":16.07684457671955},)"
    R"("control":{"enqueued":2349,"attempts":2509,"delivered":2328,"retries":160,)"
    R"("dead_letters":21,"redelivered":7,"retry_pending_end":0,"journal_pending_end":0,)"
    R"("latency_s":{"count":2328,"mean":0.586340206185567,"p50":0,"p95":0,"p99":12.5,)"
    R"("max":1.2e+02}},)"
    R"("liveness":{"lease_expiries":9,"reconnects":9,"throttle_ticks":267,"throttled_peak":5,)"
    R"("suspend_events":14,"stale_reservations":138,"shed_suspensions":3,"rebalances":363},)"
    R"("security":{"challenges":19,"accepted":19,"rejected":0}})" "\n";

Message heartbeat_msg(std::uint32_t station, double created_s) {
  Message msg;
  msg.type = MessageType::kHeartbeat;
  msg.station = station;
  msg.created_s = created_s;
  return msg;
}

// --- FleetSpec round trip and validation ------------------------------------

std::string read_golden(const std::string& name) {
  const std::string path = std::string(EVSYS_SOURCE_DIR) + "/tests/data/golden/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Full-message assertion: from_text(text) throws exactly \p message.
void expect_fleet_error(const std::string& text, const std::string& message) {
  try {
    (void)FleetSpec::from_text(text);
    FAIL() << "accepted: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message) << "for " << text;
  }
}

// Every key away from its default and one grid fault of each kind: the
// bytes of to_text are pinned, key order, number forms and enum names.
TEST(FleetSpec, KitchenSinkMatchesGolden) {
  FleetSpec spec;
  spec.name = "kitchen-sink";
  spec.stations = 24;
  spec.feeders = 3;
  spec.sim_hours = 0.5;
  spec.tick_s = 2.5;
  spec.seed = 7;
  spec.station_max_current_a = 40.0;
  spec.station_min_current_a = 8.0;
  spec.station_safe_current_a = 10.0;
  spec.station_voltage_v = 230.0;
  spec.rogue_stations = 2;
  spec.arrival_rate_per_station_per_h = 1.25;
  spec.session_energy_min_kwh = 4.5;
  spec.session_energy_max_kwh = 22.0;
  spec.meter_period_s = 30.0;
  spec.grid_capacity_kw = 180.0;
  spec.rebalance_period_s = 7.5;
  spec.heartbeat_period_s = 5.0;
  spec.heartbeat_lease_s = 20.0;
  spec.msg_loss_probability = 0.05;
  spec.retry_max_attempts = 4;
  spec.retry_timeout_s = 1.5;
  spec.retry_backoff_base_s = 0.5;
  spec.retry_backoff_cap_s = 30.0;
  spec.retry_jitter = 0.25;
  spec.grid_faults = {
      GridFaultSpec{120.0, GridFaultKindSpec::kCapacityDrop, 0, 0.4, 600.0},
      GridFaultSpec{900.0, GridFaultKindSpec::kFeederPartition, 2, 0.0, 300.0},
      GridFaultSpec{1500.0, GridFaultKindSpec::kCommsBlackout, 8, 6.0, 240.0},
  };
  spec.validate();
  const std::string golden = read_golden("golden_kitchen_sink.fleet");
  EXPECT_EQ(spec.to_text(), golden);
  EXPECT_EQ(FleetSpec::from_text(golden), spec);
}

// `evsys template fleet` prints the default spec.
TEST(FleetSpec, TemplateMatchesGolden) {
  EXPECT_EQ(FleetSpec{}.to_text(), read_golden("golden_template.fleet"));
}

TEST(FleetSpec, DefaultRoundTripsLosslessly) {
  const FleetSpec spec;
  const FleetSpec reparsed = FleetSpec::from_text(spec.to_text());
  EXPECT_EQ(spec, reparsed);
}

TEST(FleetSpec, FaultTimelineRoundTrips) {
  FleetSpec spec;
  spec.name = "faulted";
  spec.seed = 99;
  spec.grid_faults.push_back(
      GridFaultSpec{120.0, GridFaultKindSpec::kCapacityDrop, 0, 0.4, 600.0});
  spec.grid_faults.push_back(
      GridFaultSpec{900.0, GridFaultKindSpec::kFeederPartition, 2, 0.0, 300.0});
  spec.grid_faults.push_back(
      GridFaultSpec{1500.0, GridFaultKindSpec::kCommsBlackout, 8, 16.0, 240.0});
  const FleetSpec reparsed = FleetSpec::from_text(spec.to_text());
  EXPECT_EQ(spec, reparsed);
}

TEST(FleetSpec, ValidateRejectsBadValues) {
  FleetSpec spec;
  spec.heartbeat_lease_s = spec.heartbeat_period_s / 2.0;  // lease < period
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = FleetSpec{};
  spec.msg_loss_probability = 1.0;  // loss must leave a delivery path
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = FleetSpec{};
  spec.station_min_current_a = spec.station_max_current_a + 1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = FleetSpec{};
  spec.retry_max_attempts = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(FleetSpec, FromTextRejectsDuplicateKeys) {
  const FleetSpec spec;
  const std::string text = spec.to_text() + "fleet.stations = 9\n";
  expect_fleet_error(text, "fleet: duplicate key 'fleet.stations'");
}

TEST(FleetSpec, ParserNamesTheOffendingLine) {
  expect_fleet_error("fleet.stations 9\n", "fleet: expected 'key = value', got 'fleet.stations 9'");
  expect_fleet_error("fleet.stations =\n", "fleet: empty key or value in 'fleet.stations ='");
  expect_fleet_error("fleet.statoins = 9\n", "fleet: unknown key 'fleet.statoins'");
  expect_fleet_error("fleet.tick_s = fast\n", "fleet: 'fleet.tick_s' expects a number, got 'fast'");
  expect_fleet_error("fleet.stations = -9\n",
                     "fleet: 'fleet.stations' expects a non-negative integer, got '-9'");
  expect_fleet_error("grid.capacity_kw = 1e999\n",
                     "fleet: 'grid.capacity_kw' value out of range: '1e999'");
  expect_fleet_error("gridfault.0 = 1 grid.melt 0 0.5 60\n",
                     "fleet: unknown grid fault kind 'grid.melt'");
  expect_fleet_error("gridfault.1 = 1 grid.capacity_drop 0 0.5 60\n",
                     "fleet: gridfault entries must be numbered consecutively from 0; "
                     "got 'gridfault.1'");
  expect_fleet_error("gridfault.0 = 1 grid.capacity_drop 0 0.5\n",
                     "fleet: 'gridfault.0' expects '<at_s> <kind> <target> <value> "
                     "<duration_s>'");
  expect_fleet_error("gridfault.0 = 1 grid.capacity_drop -1 0.5 60\n",
                     "fleet: 'gridfault.0' expects a non-negative integer, got '-1'");
  try {
    (void)ev::config::load_fleet_file("/nonexistent/nowhere.fleet");
    FAIL() << "missing file loaded";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "fleet: cannot read '/nonexistent/nowhere.fleet'");
  }
}

// Substring assertion helper for the .fleet parser's diagnostics.
void expect_fleet_rejects(const std::string& line, const std::string& needle) {
  try {
    (void)FleetSpec::from_text(line);
    FAIL() << "accepted: " << line;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "for " << line << " got: " << e.what();
  }
}

TEST(FleetSpec, ParserRejectsOutOfRangeAndNonFinite) {
  // Same closed grammar as the scenario parser: the .fleet reader shares
  // kv_text.h, so strtod/strtoull saturation and extensions must fail
  // typed here too.
  expect_fleet_rejects("grid.capacity_kw = 1e999\n", "out of range");
  expect_fleet_rejects("fleet.tick_s = 1e-999\n", "out of range");
  expect_fleet_rejects("fleet.stations = 99999999999999999999\n",
                       "out of range");
  expect_fleet_rejects("grid.capacity_kw = inf\n", "expects a number");
  expect_fleet_rejects("grid.capacity_kw = nan\n", "expects a number");
  expect_fleet_rejects("fleet.stations = +4\n", "non-negative integer");
  expect_fleet_rejects("fleet.tick_s = 0x1p-1\n", "expects a number");
  expect_fleet_rejects("fleet.tick_s = +0.5\n", "expects a number");
  expect_fleet_rejects("fleet.tick_s =\n", "empty");
}

TEST(FleetSpec, ValidateRejectsNonFiniteFields) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  FleetSpec spec;
  spec.grid_capacity_kw = inf;
  try {
    spec.validate();
    FAIL() << "validated";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "fleet: grid.capacity_kw must be finite");
  }

  spec = FleetSpec{};
  spec.tick_s = nan;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = FleetSpec{};
  spec.msg_loss_probability = nan;  // NaN sails through `< 0 || > 1`
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = FleetSpec{};
  spec.grid_faults.push_back(
      GridFaultSpec{nan, GridFaultKindSpec::kCommsBlackout, 0, 0.0, 60.0});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

// --- Retry queue edge cases (satellite: retry/backoff coverage) -------------

// Attempt-budget exhaustion: a message that can never be sent must land in
// the dead-letter handler after exactly max_attempts attempts, and the
// queue's conservation law delivered + dead_letters == enqueued must hold.
TEST(RetryQueue, BudgetExhaustionDeadLetters) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.timeout_s = 1.0;
  policy.backoff_base_s = 1.0;
  policy.backoff_cap_s = 4.0;
  policy.jitter = 0.0;
  RetryQueue queue(policy);
  ev::util::Rng rng(7);

  queue.enqueue(heartbeat_msg(0, 0.0), 0.0);
  std::vector<Message> dead;
  for (int tick = 0; tick <= 100 && queue.pending() > 0; ++tick) {
    queue.pump(static_cast<double>(tick), rng, [](const Message&) { return false; },
               [&](const Message& msg) { dead.push_back(msg); });
  }
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].type, MessageType::kHeartbeat);
  EXPECT_EQ(queue.attempts(), 3u);
  EXPECT_EQ(queue.dead_letters(), 1u);
  EXPECT_EQ(queue.delivered(), 0u);
  EXPECT_EQ(queue.retries(), 2u);  // attempts 1 and 2 re-armed, 3 dead-lettered
  EXPECT_EQ(queue.delivered() + queue.dead_letters(), queue.enqueued());
  EXPECT_EQ(queue.pending(), 0u);
}

// Backoff delays must double per attempt, saturate at the cap, and sit on
// top of the loss-detection timeout.
TEST(RetryQueue, BackoffDoublesAndSaturates) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.timeout_s = 2.0;
  policy.backoff_base_s = 2.0;
  policy.backoff_cap_s = 16.0;
  policy.jitter = 0.0;
  RetryQueue queue(policy);
  ev::util::Rng rng(1);

  EXPECT_DOUBLE_EQ(queue.backoff_delay_s(1, rng), 2.0 + 2.0);
  EXPECT_DOUBLE_EQ(queue.backoff_delay_s(2, rng), 2.0 + 4.0);
  EXPECT_DOUBLE_EQ(queue.backoff_delay_s(3, rng), 2.0 + 8.0);
  EXPECT_DOUBLE_EQ(queue.backoff_delay_s(4, rng), 2.0 + 16.0);
  EXPECT_DOUBLE_EQ(queue.backoff_delay_s(5, rng), 2.0 + 16.0);  // capped
}

// Jitter determinism: two queues fed from equal-seeded RNGs must schedule
// bit-identical retry times; a different seed must diverge.
TEST(RetryQueue, JitterIsSeedDeterministic) {
  RetryPolicy policy;
  policy.jitter = 0.25;
  RetryQueue a(policy), b(policy), c(policy);
  ev::util::Rng rng_a(1234), rng_b(1234), rng_c(99);

  bool diverged = false;
  for (std::uint32_t attempt = 1; attempt <= 8; ++attempt) {
    const double delay_a = a.backoff_delay_s(attempt, rng_a);
    const double delay_b = b.backoff_delay_s(attempt, rng_b);
    const double delay_c = c.backoff_delay_s(attempt, rng_c);
    EXPECT_EQ(delay_a, delay_b) << "same-seed backoff diverged at " << attempt;
    diverged = diverged || delay_a != delay_c;
  }
  EXPECT_TRUE(diverged) << "different seeds never changed the jitter";
}

// Entries that are not yet due keep their enqueue order and positions.
TEST(RetryQueue, PumpPreservesOrderAndDueTimes) {
  RetryPolicy policy;
  policy.timeout_s = 5.0;
  policy.jitter = 0.0;
  RetryQueue queue(policy);
  ev::util::Rng rng(3);

  queue.enqueue(heartbeat_msg(0, 0.0), 0.0);
  Message meter = heartbeat_msg(0, 0.0);
  meter.type = MessageType::kMeterValues;
  queue.enqueue(meter, 0.0);

  // First pump fails both: both re-arm at 0 + timeout + backoff.
  queue.pump(0.0, rng, [](const Message&) { return false; },
             [](const Message&) { FAIL() << "unexpected dead letter"; });
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_TRUE(queue.has(MessageType::kHeartbeat));
  EXPECT_TRUE(queue.has(MessageType::kMeterValues));
  EXPECT_GT(queue.next_due_s(), 0.0);

  // Pump before the due time: nothing attempted.
  const std::uint64_t attempts_before = queue.attempts();
  queue.pump(1.0, rng, [](const Message&) { return true; },
             [](const Message&) {});
  EXPECT_EQ(queue.attempts(), attempts_before);

  // At the due time both deliver, heartbeat first (enqueue order).
  std::vector<MessageType> delivered;
  queue.pump(queue.next_due_s() + policy.backoff_cap_s + policy.timeout_s, rng,
             [&](const Message& msg) {
               delivered.push_back(msg.type);
               return true;
             },
             [](const Message&) {});
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], MessageType::kHeartbeat);
  EXPECT_EQ(delivered[1], MessageType::kMeterValues);
  EXPECT_EQ(queue.pending(), 0u);
}

// --- Heartbeat lease boundary (satellite: lease expiry edge case) -----------

FleetSpec tiny_spec() {
  FleetSpec spec;
  spec.name = "tiny";
  spec.stations = 4;
  spec.feeders = 2;
  spec.sim_hours = 0.25;
  spec.seed = 7;
  spec.arrival_rate_per_station_per_h = 6.0;  // keep sessions flowing
  spec.session_energy_min_kwh = 1.0;
  spec.session_energy_max_kwh = 3.0;
  return spec;
}

// A station must throttle exactly at the tick where now - last_contact
// reaches the lease — not one tick later.
TEST(HeartbeatLease, ExpiresExactlyAtBoundaryTick) {
  ev::fleet::StationConfig config;
  config.lease_s = 30.0;
  config.heartbeat_period_s = 10.0;
  config.arrival_rate_per_h = 0.0;  // no sessions; isolate the lease logic
  ev::fleet::ChargePoint station(0, config, ev::security::Key(32, 0x11), 5);

  std::vector<Message> outbox;
  // Boot and make contact at t = boot time.
  double contact_s = -1.0;
  for (double t = 0.0; t <= 20.0 && contact_s < 0.0; t += 1.0) {
    outbox.clear();
    station.advance(t, 1.0, true, outbox);
    for (const Message& msg : outbox) {
      if (msg.type == MessageType::kBootNotification) {
        ev::fleet::Reply reply;
        reply.in_reply_to = MessageType::kBootNotification;
        reply.status = ev::fleet::ReplyStatus::kAccepted;
        station.deliver(reply, t);
        contact_s = t;
      }
    }
  }
  ASSERT_GE(contact_s, 0.0) << "station never booted";

  // Channel dark from here on. One tick before the boundary: still fresh.
  for (double t = contact_s + 1.0; t < contact_s + config.lease_s; t += 1.0) {
    outbox.clear();
    station.advance(t, 1.0, false, outbox);
    EXPECT_FALSE(station.throttled()) << "throttled early at t=" << t;
  }
  // Exactly at last_contact + lease: throttled (>= boundary, not >).
  outbox.clear();
  station.advance(contact_s + config.lease_s, 1.0, false, outbox);
  EXPECT_TRUE(station.throttled());
  EXPECT_EQ(station.stats().lease_expiries, 1u);
}

// A station whose load-balancer grant sits below the ThrottleAlive safe
// current loses contact: the lease throttle may only lower its draw, and the
// central system's stale reservation for it never exceeds the grant either
// (a reservation raised to the safe current overcommits the grid).
TEST(HeartbeatLease, SubSafeGrantIsNeverRaisedBySilence) {
  ev::fleet::StationConfig config;
  config.arrival_rate_per_h = 3600.0;  // a car plugs in within seconds
  config.energy_min_kwh = 50.0;        // ... and charges for the whole test
  config.energy_max_kwh = 60.0;
  ev::fleet::CentralConfig central_config;
  central_config.station_count = 1;
  central_config.capacity_kw = 2.6;  // 6.5 A: above min (6 A), below safe (8 A)
  const ev::security::Key master(32, 0x42);
  ev::fleet::CentralSystem central(central_config, master);
  ev::fleet::ChargePoint station(0, config, ev::fleet::station_credential(master, 0), 3);
  const double grant_a = 6.5;

  std::vector<Message> outbox;
  auto tick = [&](double t, bool up) {
    if (up) {
      const std::vector<double> grants = central.rebalance(t, central_config.capacity_kw,
                                                           {true}, /*island_active=*/false);
      if (grants[0] >= 0.0) station.set_allocated(grants[0], t);
    }
    outbox.clear();
    station.advance(t, 1.0, up, outbox);
    for (const Message& msg : outbox) station.deliver(central.process(msg, t), t);
  };
  double t = 0.0;
  for (; t < 120.0; t += 1.0) tick(t, true);
  ASSERT_EQ(station.state(), ev::fleet::StationState::kCharging);
  ASSERT_DOUBLE_EQ(station.allocated_a(), grant_a);

  bool throttled = false;
  for (const double dark_until = t + 3 * config.lease_s; t < dark_until; t += 1.0) {
    tick(t, false);
    throttled = throttled || station.throttled();
    EXPECT_LE(station.draw_a(), grant_a) << "t=" << t;
    EXPECT_LE(central.station_reserve_a(0, t), grant_a) << "t=" << t;
  }
  EXPECT_TRUE(throttled) << "the lease never ran out";
}

// --- Whole-run robustness invariants ----------------------------------------

// Heartbeat loss must throttle affected stations to the safe minimum within
// one lease period, and reconnect must clear the throttle.
TEST(FleetRun, BlackoutThrottlesWithinOneLeasePeriod) {
  FleetSpec spec = tiny_spec();
  spec.stations = 8;
  spec.sim_hours = 0.5;
  spec.arrival_rate_per_station_per_h = 12.0;
  // Stations 0..7 all blacked out for 300 s starting at 600 s.
  spec.grid_faults.push_back(
      GridFaultSpec{600.0, GridFaultKindSpec::kCommsBlackout, 0, 8.0, 300.0});
  const FleetResult result = ev::fleet::run_fleet(spec, 1);

  EXPECT_EQ(result.grid_violations, 0u);
  // Every station that was mid-lease at blackout start must have expired.
  EXPECT_GT(result.stations.lease_expiries, 0u);
  EXPECT_GT(result.stations.throttle_ticks, 0u);
  EXPECT_EQ(result.stations.reconnects, result.stations.lease_expiries);
  EXPECT_EQ(result.throttled_peak, 8u);
}

// An injected capacity drop must never strand an authorized session: open
// transactions survive shedding (suspended, not dropped) and the grid limit
// holds throughout.
TEST(FleetRun, CapacityDropNeverStrandsOrOvercommits) {
  FleetSpec spec = tiny_spec();
  spec.stations = 16;
  spec.feeders = 4;
  spec.sim_hours = 1.0;
  spec.grid_capacity_kw = 16 * 32 * 400.0 / 1000.0;  // full fleet fits...
  spec.arrival_rate_per_station_per_h = 8.0;
  // ...until 85% of it disappears for 10 minutes.
  spec.grid_faults.push_back(
      GridFaultSpec{900.0, GridFaultKindSpec::kCapacityDrop, 0, 0.85, 600.0});
  const FleetResult result = ev::fleet::run_fleet(spec, 1);

  EXPECT_EQ(result.grid_violations, 0u);
  EXPECT_GT(result.mode_ticks[static_cast<std::size_t>(
                ev::fleet::GridMode::kShedLoad)] +
                result.mode_ticks[static_cast<std::size_t>(
                    ev::fleet::GridMode::kConstrained)],
            0u)
      << "the drop never degraded the mode";
  // Conservation: every arrival is accounted for — completed, rejected,
  // abandoned, or still open/in-progress at the end. Nothing vanishes.
  EXPECT_GE(result.stations.arrivals,
            result.stations.sessions_completed + result.stations.sessions_rejected +
                result.stations.sessions_abandoned);
  EXPECT_GT(result.stations.sessions_completed, 0u);
  // Suspended sessions resumed once capacity returned: by the end the
  // balancer is back to normal and nothing is shed.
  EXPECT_EQ(result.final_mode, ev::fleet::GridMode::kNormal);
}

// Rogue stations (corrupted credentials) must be rejected cleanly by the
// HMAC challenge-response — never authorized, never crashing the run.
TEST(FleetRun, RogueStationsRejectedCleanly) {
  FleetSpec spec = tiny_spec();
  spec.stations = 6;
  spec.rogue_stations = 2;
  spec.sim_hours = 0.5;
  spec.arrival_rate_per_station_per_h = 10.0;
  const FleetResult result = ev::fleet::run_fleet(spec, 1);

  EXPECT_GT(result.central.authorize_rejected, 0u);
  EXPECT_EQ(result.central.authorize_rejected, result.stations.sessions_rejected);
  EXPECT_GT(result.central.authorize_accepted, 0u);  // honest stations fine
  EXPECT_EQ(result.grid_violations, 0u);
}

// Dead-lettered accounting messages must be journaled and redelivered on
// reconnect so billing converges (billed == delivered energy of every
// stopped session, cumulative meters make redelivery idempotent).
TEST(FleetRun, AccountingConvergesAfterBlackout) {
  FleetSpec spec = tiny_spec();
  spec.stations = 8;
  spec.sim_hours = 1.0;
  spec.arrival_rate_per_station_per_h = 12.0;
  spec.retry_max_attempts = 2;  // force dead letters quickly
  spec.grid_faults.push_back(
      GridFaultSpec{600.0, GridFaultKindSpec::kCommsBlackout, 0, 8.0, 400.0});
  const FleetResult result = ev::fleet::run_fleet(spec, 1);

  EXPECT_GT(result.messages_dead_lettered, 0u);
  EXPECT_GT(result.stations.redelivered, 0u);
  EXPECT_EQ(result.journal_pending_end, 0u) << "journal never drained";
  // Conservation law of the retry queues: nothing vanishes. (Redelivered
  // journal entries pass through enqueue() again, so they are already part
  // of the enqueued count.)
  EXPECT_EQ(result.messages_delivered + result.messages_dead_lettered +
                result.retry_pending_end,
            result.messages_enqueued);
  // Billed energy covers every stopped transaction's final meter; it can
  // only trail delivered energy by what is still open at the end.
  EXPECT_LE(result.central.billed_kwh,
            result.stations.energy_delivered_kwh + 1e-9);
  EXPECT_EQ(result.grid_violations, 0u);
}

// examples/scenarios/depot_fleet.fleet: 96 stations behind 400 kW, walking
// the whole degradation ladder.
FleetSpec depot_spec(std::uint64_t seed) {
  FleetSpec spec = FleetSpec::from_text(R"(fleet.name = depot_fleet
fleet.stations = 96
fleet.feeders = 6
fleet.sim_hours = 2
station.rogue_count = 2
sessions.arrival_rate_per_station_per_h = 1.2
sessions.energy_min_kwh = 4
sessions.energy_max_kwh = 18
grid.capacity_kw = 400
channel.loss_probability = 0.02
gridfault.0 = 1800 grid.capacity_drop 0 0.75 900
gridfault.1 = 3600 comms.blackout 24 24 600
gridfault.2 = 5400 grid.feeder_partition 2 0 600
)");
  spec.seed = seed;
  return spec;
}

// Seed 39 of the depot yard once overdrew the grid twice: a shed-load
// station holding a 6.1 A grant went lease-silent, and ThrottleAlive raised
// its draw (and the central reservation) to the 8 A safe current.
TEST(FleetRun, DepotSeed39NeverOverdrawsTheGrid) {
  const FleetResult result = ev::fleet::run_fleet(depot_spec(39), 1);
  EXPECT_EQ(result.grid_violations, 0u);
  EXPECT_GE(result.min_headroom_kw, -1e-6);  // the invariant's tolerance
  EXPECT_GT(result.stations.lease_expiries, 0u);
}

// --- Determinism ------------------------------------------------------------

TEST(FleetRun, ReportByteIdenticalAcrossReruns) {
  FleetSpec spec = tiny_spec();
  spec.stations = 12;
  spec.feeders = 3;
  spec.msg_loss_probability = 0.05;
  spec.grid_faults.push_back(
      GridFaultSpec{300.0, GridFaultKindSpec::kCapacityDrop, 0, 0.6, 300.0});
  spec.grid_faults.push_back(
      GridFaultSpec{700.0, GridFaultKindSpec::kFeederPartition, 1, 0.0, 120.0});

  const std::string first = ev::fleet::fleet_report_json(ev::fleet::run_fleet(spec, 1));
  const std::string rerun = ev::fleet::fleet_report_json(ev::fleet::run_fleet(spec, 1));
  EXPECT_EQ(first, rerun) << "same-seed rerun changed the report bytes";

  FleetSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(first, ev::fleet::fleet_report_json(ev::fleet::run_fleet(other, 1)))
      << "seed does not reach the simulation";
}

// Fault edges between ticks: every event starts and ends off the 2.5 s tick
// grid, one capacity drop lives entirely between two ticks, two drops
// overlap, and the last blackout starts exactly on a tick. The loop reads
// the grid only when changed_between() fires, so this pins that it sees
// each edge at the first tick after it. The report was recorded before the
// loop stopped re-reading the timeline on every tick.
TEST(FleetRun, MidTickFaultEdgesMatchGolden) {
  FleetSpec spec = tiny_spec();
  spec.name = "midtick";
  spec.stations = 12;
  spec.feeders = 3;
  spec.sim_hours = 0.5;
  spec.tick_s = 2.5;
  spec.arrival_rate_per_station_per_h = 8.0;
  spec.grid_capacity_kw = 60.0;
  spec.grid_faults = {
      GridFaultSpec{301.3, GridFaultKindSpec::kCapacityDrop, 0, 0.5, 0.7},
      GridFaultSpec{400.1, GridFaultKindSpec::kCapacityDrop, 0, 0.4, 250.2},
      GridFaultSpec{500.6, GridFaultKindSpec::kCapacityDrop, 0, 0.5, 100.05},
      GridFaultSpec{650.25, GridFaultKindSpec::kCommsBlackout, 4, 5.0, 123.4},
      GridFaultSpec{900.9, GridFaultKindSpec::kFeederPartition, 1, 0.0, 77.7},
      GridFaultSpec{1000.0, GridFaultKindSpec::kCommsBlackout, 0, 12.0, 12.5},
  };
  const std::string report = ev::fleet::fleet_report_json(ev::fleet::run_fleet(spec, 1));
  EXPECT_EQ(report, kMidTickGolden);
}

TEST(FleetRun, MetricsRegistryMatchesReport) {
  const FleetSpec spec = tiny_spec();
  ev::obs::MetricsRegistry metrics;
  const FleetResult result = ev::fleet::run_fleet(spec, 1, &metrics);

  EXPECT_EQ(metrics.counter_value(metrics.find("fleet.sessions_completed")),
            result.stations.sessions_completed);
  EXPECT_EQ(metrics.counter_value(metrics.find("fleet.grid_violations")), 0u);
  EXPECT_EQ(
      metrics.histogram_stats(metrics.find("fleet.decision_latency_s")).count(),
      result.central.decision_latency_s.count());
  EXPECT_DOUBLE_EQ(metrics.gauge_value(metrics.find("fleet.peak_draw_kw")),
                   result.peak_draw_kw);
}

}  // namespace

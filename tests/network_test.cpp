// Unit tests for the in-vehicle network models: CAN (+ response-time
// analysis, bit-exact against a test-local oracle), LIN, FlexRay, the CAN/FlexRay arbitration order against
// test-local oracles, MOST, switched Ethernet (strict priority, CBS,
// time-aware gates), the gateway, and the Fig. 1 topology builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>

#include "ev/network/can.h"
#include "ev/network/ethernet.h"
#include "ev/network/flexray.h"
#include "ev/network/gateway.h"
#include "ev/network/lin.h"
#include "ev/network/most.h"
#include "ev/obs/metrics.h"
#include "ev/network/topology.h"
#include "ev/sim/simulator.h"
#include "ev/util/rng.h"
#include "ev/util/stats.h"
#include "ev/util/table.h"

namespace {

using namespace ev::network;
using ev::sim::Simulator;
using ev::sim::Time;

// ------------------------------------------------------------------ CAN ----

TEST(Can, FrameBitsFormula) {
  // 47 + 8n + stuffing((34 + 8n - 1) / 4).
  EXPECT_EQ(CanBus::frame_bits(0), 47u + 8u);
  EXPECT_EQ(CanBus::frame_bits(8), 47u + 64u + 24u);
}

TEST(Can, DeliversSingleFrame) {
  Simulator sim;
  CanBus bus(sim, "can", 500e3);
  int delivered = 0;
  bus.subscribe([&](const Frame&, Time) { ++delivered; });
  Frame f;
  f.id = 0x100;
  f.payload_size = 8;
  EXPECT_TRUE(bus.send(f));
  sim.run();
  EXPECT_EQ(delivered, 1);
  // 135 bits at 500 kbit/s = 270 us.
  EXPECT_NEAR(bus.latency().mean(), 270e-6, 1e-6);
}

TEST(Can, RejectsOversizedPayload) {
  Simulator sim;
  CanBus bus(sim, "can");
  Frame f;
  f.payload_size = 9;
  EXPECT_FALSE(bus.send(f));
}

TEST(Can, ArbitrationLowestIdWins) {
  Simulator sim;
  CanBus bus(sim, "can", 500e3);
  std::vector<std::uint32_t> order;
  bus.subscribe([&](const Frame& f, Time) { order.push_back(f.id); });
  // Seed one frame to occupy the bus, then queue contenders.
  Frame f;
  f.payload_size = 8;
  f.id = 0x50;
  ASSERT_TRUE(bus.send(f));
  f.id = 0x300;
  ASSERT_TRUE(bus.send(f));
  f.id = 0x100;
  ASSERT_TRUE(bus.send(f));
  f.id = 0x200;
  ASSERT_TRUE(bus.send(f));
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0x50, 0x100, 0x200, 0x300}));
}

TEST(Can, NonPreemptive) {
  Simulator sim;
  CanBus bus(sim, "can", 500e3);
  std::vector<std::uint32_t> order;
  bus.subscribe([&](const Frame& f, Time) { order.push_back(f.id); });
  Frame low;
  low.id = 0x700;
  low.payload_size = 8;
  ASSERT_TRUE(bus.send(low));
  // A higher-priority frame arriving mid-transmission must wait.
  sim.schedule_at(Time::us(50), [&] {
    Frame high;
    high.id = 0x001;
    high.payload_size = 8;
    ASSERT_TRUE(bus.send(high));
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0x700, 0x001}));
}

TEST(Can, UtilizationAccumulates) {
  Simulator sim;
  CanBus bus(sim, "can", 500e3);
  bus.subscribe([](const Frame&, Time) {});
  sim.schedule_periodic(Time{}, Time::ms(1), [&] {
    Frame f;
    f.id = 1;
    f.payload_size = 8;
    (void)bus.send(f);
  });
  sim.run_until(Time::s(1));
  // 135 bits / 1 ms at 500 kbit/s = 27% utilization.
  EXPECT_NEAR(bus.utilization(), 0.27, 0.01);
}

TEST(Can, ObserverGaugesMatchHandRolledCounters) {
  Simulator sim;
  ev::obs::MetricsRegistry registry;
  CanBus bus(sim, "can0", 500e3);
  bus.attach_observer(registry);
  bus.subscribe([](const Frame&, Time) {});
  sim.schedule_periodic(Time{}, Time::ms(1), [&] {
    Frame f;
    f.id = 1;
    f.payload_size = 8;
    (void)bus.send(f);
  });
  sim.run_until(Time::s(1));
  EXPECT_EQ(registry.counter_value(registry.counter("net.can0.frames")),
            bus.delivered_count());
  EXPECT_EQ(registry.counter_value(registry.counter("net.can0.payload_bytes")),
            bus.delivered_payload_bytes());
  // The gauge holds utilization as of the last delivery (slightly before the
  // horizon the hand-rolled query sees), so compare with a small tolerance.
  EXPECT_NEAR(registry.gauge_value(registry.gauge("net.can0.utilization")),
              bus.utilization(), 1e-3);
  EXPECT_EQ(
      registry
          .histogram_stats(registry.histogram("net.can0.frame_latency_us", 0.0, 1e5, 64))
          .count(),
      bus.latency().count());
  EXPECT_GT(bus.delivered_count(), 0u);
}

TEST(CanAnalysis, HighestPriorityBoundTight) {
  std::vector<CanMessageSpec> set{{1, 8, 0.01, 0.0}, {2, 8, 0.01, 0.0}, {3, 8, 0.01, 0.0}};
  CanRtaScratch rta;
  const auto results = can_response_times(set, 500e3, rta);
  ASSERT_EQ(results.size(), 3u);
  // Highest priority: blocking (one 135-bit frame) + own transmission.
  EXPECT_NEAR(results[0].worst_case_s, 2 * 135.0 / 500e3, 1e-6);
  EXPECT_TRUE(results[0].schedulable);
  // Monotone: lower priority has larger bound.
  EXPECT_GE(results[1].worst_case_s, results[0].worst_case_s);
  EXPECT_GE(results[2].worst_case_s, results[1].worst_case_s);
}

TEST(CanAnalysis, OverloadDetected) {
  // 30 messages at 1 ms on 500 kbit/s: > 100% utilization.
  std::vector<CanMessageSpec> set;
  for (std::uint32_t i = 0; i < 30; ++i) set.push_back({i, 8, 0.001, 0.0});
  CanRtaScratch rta;
  const auto results = can_response_times(set, 500e3, rta);
  EXPECT_FALSE(results.back().schedulable);
}

TEST(CanAnalysis, BoundDominatesSimulation) {
  // The analytical worst case must upper-bound every observed latency.
  std::vector<CanMessageSpec> set{{1, 8, 0.005, 0.0}, {2, 8, 0.007, 0.0},
                                  {3, 8, 0.009, 0.0}, {4, 8, 0.011, 0.0}};
  CanRtaScratch rta;
  const auto bounds = can_response_times(set, 500e3, rta);
  std::map<std::uint32_t, double> bound_of;
  for (const auto& b : bounds) bound_of[b.id] = b.worst_case_s;

  Simulator sim;
  CanBus bus(sim, "can", 500e3);
  std::map<std::uint32_t, double> observed_max;
  bus.subscribe([&](const Frame& f, Time at) {
    observed_max[f.id] =
        std::max(observed_max[f.id], (at - f.created).to_seconds());
  });
  for (const auto& m : set) {
    sim.schedule_periodic(Time{}, Time::seconds(m.period_s), [&bus, m] {
      Frame f;
      f.id = m.id;
      f.payload_size = m.payload_bytes;
      (void)bus.send(f);
    });
  }
  sim.run_until(Time::s(5));
  for (const auto& [id, obs] : observed_max) EXPECT_LE(obs, bound_of[id] + 1e-9);
}

// ------------------------------------------------- CAN stochastic errors ----

// Fixed periodic workload shared by the error-model tests: four frames sent
// on their periods until \p until_s, then one extra second of drain time
// (errors delay frames, they never lose them). Returns the send count.
std::size_t drive_workload(Simulator& sim, CanBus& bus, double until_s) {
  auto sent = std::make_shared<std::size_t>(0);
  for (std::uint32_t id = 1; id <= 4; ++id) {
    const double period_s = 0.004 + 0.001 * id;
    sim.schedule_periodic(Time{}, Time::seconds(period_s),
                          [&bus, &sim, sent, id, until_s] {
                            if (sim.now().to_seconds() > until_s) return;
                            Frame f;
                            f.id = id;
                            f.payload_size = 8;
                            if (bus.send(f)) ++*sent;
                          });
  }
  sim.run_until(Time::seconds(until_s + 1.0));
  return *sent;
}

TEST(CanErrorModel, ZeroModelIsInert) {
  Simulator clean_sim, armed_sim;
  CanBus clean(clean_sim, "can", 125e3);
  CanBus armed(armed_sim, "can", 125e3);
  armed.arm_error_model(CanErrorModel{});  // all-zero: disarmed
  drive_workload(clean_sim, clean, 1.0);
  drive_workload(armed_sim, armed, 1.0);
  EXPECT_EQ(armed.fault_error_count(), 0u);
  EXPECT_EQ(armed.delivered_count(), clean.delivered_count());
  EXPECT_EQ(armed.latency().max(), clean.latency().max());
  EXPECT_EQ(armed.latency().mean(), clean.latency().mean());
}

TEST(CanErrorModel, PoissonErrorsDelayButNeverLose) {
  Simulator clean_sim, armed_sim;
  CanBus clean(clean_sim, "can", 125e3);
  CanBus armed(armed_sim, "can", 125e3);
  CanErrorModel model;
  model.poisson_rate_per_s = 400.0;
  model.seed = 7;
  armed.arm_error_model(model);
  drive_workload(clean_sim, clean, 2.0);
  drive_workload(armed_sim, armed, 2.0);
  EXPECT_GT(armed.fault_error_count(), 0u);
  // Automatic retransmission: every frame still arrives, only later.
  EXPECT_EQ(armed.delivered_count(), clean.delivered_count());
  EXPECT_GT(armed.latency().mean(), clean.latency().mean());
}

TEST(CanErrorModel, BernoulliErrorsDelayButNeverLose) {
  Simulator sim;
  CanBus bus(sim, "can", 125e3);
  CanErrorModel model;
  model.per_attempt_prob = 0.25;
  model.seed = 11;
  bus.arm_error_model(model);
  const std::size_t sent = drive_workload(sim, bus, 2.0);
  EXPECT_GT(bus.fault_error_count(), 0u);
  // ~1/3 extra attempts at p = 0.25; every one of them ends in a delivery.
  EXPECT_EQ(bus.delivered_count(), sent);
}

TEST(CanErrorModel, SameSeedReplaysBitIdentically) {
  const auto run = [](std::uint64_t seed) {
    Simulator sim;
    CanBus bus(sim, "can", 125e3);
    CanErrorModel model;
    model.poisson_rate_per_s = 300.0;
    model.per_attempt_prob = 0.05;
    model.seed = seed;
    bus.arm_error_model(model);
    drive_workload(sim, bus, 2.0);
    return std::tuple{bus.fault_error_count(), bus.latency().max(),
                      bus.latency().mean()};
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<0>(run(42)), std::get<0>(run(43)));
}

TEST(CanAnalysis, FaultAwareLadderMatchesErrorFreeAtZero) {
  const std::vector<CanMessageSpec> set{{1, 8, 0.005, 0.0}, {2, 8, 0.007, 0.0002},
                                        {3, 8, 0.009, 0.0}, {4, 4, 0.011, 0.0}};
  CanRtaScratch rta;
  const auto clean = can_response_times(set, 125e3, rta);
  const auto zero = can_response_times(set, 125e3, 135.0 / 125e3, 0, rta);
  ASSERT_EQ(clean.size(), zero.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    // Bit-identical, not merely close: the k = 0 rung IS the deterministic
    // analysis (the E24 degeneracy contract).
    EXPECT_EQ(clean[i].worst_case_s, zero[i].worst_case_s);
    EXPECT_EQ(clean[i].schedulable, zero[i].schedulable);
  }
}

TEST(CanAnalysis, FaultAwareLadderMonotoneInErrors) {
  const std::vector<CanMessageSpec> set{{1, 8, 0.005, 0.0}, {2, 8, 0.007, 0.0},
                                        {3, 8, 0.009, 0.0}, {4, 8, 0.011, 0.0}};
  const double overhead_s = (31.0 + 135.0) / 125e3;
  CanRtaScratch rta;
  auto prev = can_response_times(set, 125e3, overhead_s, 0, rta);
  for (int k = 1; k <= 8; ++k) {
    const auto next = can_response_times(set, 125e3, overhead_s, k, rta);
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (!prev[i].schedulable) continue;
      if (next[i].schedulable) {
        EXPECT_GE(next[i].worst_case_s, prev[i].worst_case_s + overhead_s - 1e-12);
      }
    }
    prev = next;
  }
}

// The response-time analysis as it was written before each frame's
// transmission time was hoisted out of the loops: C_j recomputed at every
// use and the blocking term rescanned per level. Kept as the oracle the
// hoisted version must match bit for bit.
std::vector<CanResponseTime> oracle_can_response_times(
    const std::vector<CanMessageSpec>& messages, double bit_rate_bps,
    double error_overhead_s, int errors) {
  const double tau_bit = 1.0 / bit_rate_bps;
  auto tx_of = [&](const CanMessageSpec& m) {
    return static_cast<double>(CanBus::frame_bits(m.payload_bytes)) * tau_bit;
  };
  const double recovery = error_overhead_s * static_cast<double>(errors);

  std::vector<CanMessageSpec> sorted = messages;
  std::sort(sorted.begin(), sorted.end(),
            [](const CanMessageSpec& a, const CanMessageSpec& b) { return a.id < b.id; });

  std::vector<CanResponseTime> results;
  results.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const CanMessageSpec& mi = sorted[i];
    const double ci = tx_of(mi);
    double blocking = 0.0;
    for (std::size_t j = i + 1; j < sorted.size(); ++j)
      blocking = std::max(blocking, tx_of(sorted[j]));

    double w = blocking + recovery;
    bool converged = false;
    for (int iter = 0; iter < 10000; ++iter) {
      double w_next = blocking + recovery;
      for (std::size_t j = 0; j < i; ++j) {
        const CanMessageSpec& mj = sorted[j];
        w_next += std::ceil((w + mj.jitter_s + tau_bit) / mj.period_s) * tx_of(mj);
      }
      if (std::fabs(w_next - w) < 1e-12) {
        w = w_next;
        converged = true;
        break;
      }
      w = w_next;
      if (w > 10.0 * mi.period_s) break;
    }
    CanResponseTime r;
    r.id = mi.id;
    r.worst_case_s = mi.jitter_s + w + ci;
    r.schedulable = converged && r.worst_case_s <= mi.period_s;
    results.push_back(r);
  }
  return results;
}

void expect_same_bounds(const std::vector<CanResponseTime>& got,
                        const std::vector<CanResponseTime>& want, std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "seed " << seed << " level " << i;
    EXPECT_EQ(got[i].worst_case_s, want[i].worst_case_s) << "seed " << seed << " level " << i;
    EXPECT_EQ(got[i].schedulable, want[i].schedulable) << "seed " << seed << " level " << i;
  }
}

// One scratch serves every call, back to back: the set sizes jump up and
// down from seed to seed, and within a seed the analysis runs again on ever
// shorter prefixes, so a result that leaned on a longer set's leftover
// buffers would diverge from the oracle.
TEST(CanAnalysis, MatchesPerUseTransmissionTimeOracle) {
  static constexpr double kRates[] = {125e3, 250e3, 500e3, 800e3, 1e6};
  static constexpr double kPeriods[] = {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1};
  std::size_t schedulable = 0;
  std::size_t unschedulable = 0;
  std::size_t prefixes = 0;
  CanRtaScratch rta;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    ev::util::Rng rng(seed);
    const double rate = kRates[rng.uniform_int(0, 4)];
    // Every fourth set gives all messages one period, so equal periods and
    // equal interference terms are covered; the rest draw from a small pool.
    const bool one_period = seed % 4 == 0;
    const double shared_period = kPeriods[rng.uniform_int(0, 6)];
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<CanMessageSpec> set;
    std::size_t max_bits = 0;
    for (std::size_t m = 0; m < n; ++m) {
      CanMessageSpec spec;
      spec.id = static_cast<std::uint32_t>(rng.uniform_int(0, 0x7ff));
      spec.payload_bytes = static_cast<std::size_t>(rng.uniform_int(0, 8));
      spec.period_s = one_period ? shared_period : kPeriods[rng.uniform_int(0, 6)];
      spec.jitter_s = rng.uniform(0.0, 0.2) * spec.period_s;
      max_bits = std::max(max_bits, CanBus::frame_bits(spec.payload_bytes));
      set.push_back(spec);
    }
    const auto clean = can_response_times(set, rate, rta);
    expect_same_bounds(clean, oracle_can_response_times(set, rate, 0.0, 0), seed);
    // Error flag plus one retransmission of the longest frame, k <= 10.
    const double overhead_s = static_cast<double>(31 + max_bits) / rate;
    const int k = static_cast<int>(rng.uniform_int(0, 10));
    expect_same_bounds(can_response_times(set, rate, overhead_s, k, rta),
                       oracle_can_response_times(set, rate, overhead_s, k), seed);
    for (const CanResponseTime& r : clean) (r.schedulable ? schedulable : unschedulable) += 1;
    // Falling sizes on the same scratch: halve the set down to one message.
    for (std::size_t size = n / 2; size > 0; size /= 2) {
      const std::vector<CanMessageSpec> prefix(set.begin(),
                                               set.begin() + static_cast<std::ptrdiff_t>(size));
      expect_same_bounds(can_response_times(prefix, rate, overhead_s, k, rta),
                         oracle_can_response_times(prefix, rate, overhead_s, k), seed);
      ++prefixes;
    }
  }
  // Both branches of the fixed point must have been exercised.
  EXPECT_GT(schedulable, 1000u);
  EXPECT_GT(unschedulable, 1000u);
  EXPECT_GT(prefixes, 1500u);
}

// ------------------------------------------------------------------ LIN ----

TEST(Lin, ScheduleDeliversInSlots) {
  Simulator sim;
  LinBus bus(sim, "lin", {{0x10, 1, 2}, {0x11, 2, 2}}, 0.01);
  std::vector<std::uint32_t> order;
  bus.subscribe([&](const Frame& f, Time) { order.push_back(f.id); });
  Frame f;
  f.id = 0x11;
  ASSERT_TRUE(bus.send(f));
  f.id = 0x10;
  ASSERT_TRUE(bus.send(f));
  bus.start();
  sim.run_until(Time::ms(25));
  // Slot order follows the schedule table, not send order.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0x10u);
  EXPECT_EQ(order[1], 0x11u);
}

TEST(Lin, UnknownIdRejected) {
  Simulator sim;
  LinBus bus(sim, "lin", {{0x10, 1, 2}});
  Frame f;
  f.id = 0x42;
  EXPECT_FALSE(bus.send(f));
}

TEST(Lin, LatencyBoundedByCycle) {
  Simulator sim;
  LinBus bus(sim, "lin", {{0x10, 1, 2}, {0x11, 2, 2}, {0x12, 3, 2}, {0x13, 4, 2}}, 0.01);
  bus.subscribe([](const Frame&, Time) {});
  bus.start();
  sim.schedule_periodic(Time::ms(1), Time::ms(40), [&] {
    Frame f;
    f.id = 0x12;
    (void)bus.send(f);
  });
  sim.run_until(Time::s(2));
  EXPECT_GT(bus.delivered_count(), 10u);
  EXPECT_LE(bus.latency().max(), bus.cycle_time_s() + 0.001);
}

TEST(Lin, StateSemanticsKeepLatest) {
  Simulator sim;
  LinBus bus(sim, "lin", {{0x10, 1, 2}}, 0.01);
  std::vector<std::uint64_t> seqs;
  bus.subscribe([&](const Frame& f, Time) { seqs.push_back(f.sequence); });
  Frame f;
  f.id = 0x10;
  ASSERT_TRUE(bus.send(f));  // seq 0
  ASSERT_TRUE(bus.send(f));  // seq 1 overwrites
  bus.start();
  sim.run_until(Time::ms(15));
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0], 1u);
}

TEST(Lin, RejectsSlotShorterThanFrame) {
  Simulator sim;
  EXPECT_THROW(LinBus(sim, "lin", {{0x10, 1, 8}}, 0.001), std::invalid_argument);
}

// -------------------------------------------------------------- FlexRay ----

FlexRayConfig small_flexray() {
  FlexRayConfig cfg;
  cfg.static_slots = {{0x1, 1, 16}, {0x2, 2, 16}, {0x3, 3, 16}};
  cfg.static_payload_bytes = 16;
  return cfg;
}

TEST(FlexRay, StaticSlotDeterministicLatency) {
  Simulator sim;
  FlexRayBus bus(sim, "fr", small_flexray());
  ev::util::SampleSeries latency;
  bus.subscribe([&](const Frame& f, Time at) {
    if (f.id == 0x2) latency.add((at - f.created).to_seconds());
  });
  bus.start();
  // Publish synchronously with the cycle: latency must be constant.
  sim.schedule_periodic(Time::us(1), Time::seconds(bus.cycle_time_s()), [&] {
    Frame f;
    f.id = 0x2;
    (void)bus.send(f);
  });
  sim.run_until(Time::s(1));
  ASSERT_GT(latency.count(), 100u);
  // Zero jitter: max == min.
  EXPECT_NEAR(latency.max() - latency.min(), 0.0, 1e-9);
}

TEST(FlexRay, DynamicSegmentPriorityOrder) {
  Simulator sim;
  FlexRayBus bus(sim, "fr", small_flexray());
  std::vector<std::uint32_t> order;
  bus.subscribe([&](const Frame& f, Time) { order.push_back(f.id); });
  Frame f;
  f.payload_size = 8;
  f.id = 0x300;
  ASSERT_TRUE(bus.send(f));
  f.id = 0x100;
  ASSERT_TRUE(bus.send(f));
  bus.start();
  sim.run_until(Time::seconds(bus.cycle_time_s() * 2));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0x100u);  // lower id first in the minislot sequence
}

TEST(FlexRay, DynamicOverflowCarriesToNextCycle) {
  Simulator sim;
  FlexRayConfig cfg = small_flexray();
  cfg.minislot_count = 10;  // tiny dynamic segment
  FlexRayBus bus(sim, "fr", cfg);
  int delivered = 0;
  bus.subscribe([&](const Frame&, Time) { ++delivered; });
  // Queue more dynamic frames than one cycle can carry.
  Frame f;
  f.payload_size = 32;
  for (std::uint32_t i = 0; i < 6; ++i) {
    f.id = 0x200 + i;
    ASSERT_TRUE(bus.send(f));
  }
  bus.start();
  sim.run_until(Time::seconds(bus.cycle_time_s() * 1.1));
  EXPECT_LT(delivered, 6);
  sim.run_until(Time::seconds(bus.cycle_time_s() * 10));
  EXPECT_EQ(delivered, 6);
}

TEST(FlexRay, DuplicateStaticIdRejected) {
  Simulator sim;
  FlexRayConfig cfg;
  cfg.static_slots = {{0x1, 1, 16}, {0x1, 2, 16}};
  EXPECT_THROW(FlexRayBus(sim, "fr", cfg), std::invalid_argument);
}

TEST(FlexRay, StateSemanticsOnStaticSlots) {
  Simulator sim;
  FlexRayBus bus(sim, "fr", small_flexray());
  std::vector<std::uint64_t> seqs;
  bus.subscribe([&](const Frame& f, Time) { seqs.push_back(f.sequence); });
  Frame f;
  f.id = 0x1;
  ASSERT_TRUE(bus.send(f));
  ASSERT_TRUE(bus.send(f));  // overwrites the buffered value
  bus.start();
  sim.run_until(Time::seconds(bus.cycle_time_s() * 1.5));
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0], 1u);
}

// ------------------------------------------------ arbitration oracles ----

// Test-local reference CAN MAC: the linear-scan rule the bus used before its
// ArbitrationQueue (min_element over the pending pool by (id, sequence), then
// erase), with CanBus's seeded error process, error recovery and automatic
// retransmission written out again.
class LinearScanCan : public Bus {
 public:
  LinearScanCan(Simulator& sim, double bit_rate_bps, const CanErrorModel& model)
      : Bus(sim, "oracle", bit_rate_bps), model_(model), rng_(model.seed) {
    if (model.poisson_rate_per_s > 0.0)
      next_error_s_ = sim.now().to_seconds() + rng_.exponential(model.poisson_rate_per_s);
  }
  [[nodiscard]] std::size_t errors() const noexcept { return errors_; }

 protected:
  bool do_send(Frame frame) override {
    if (frame.payload_size > 8) return false;
    pending_.push_back(std::move(frame));
    start();
    return true;
  }

 private:
  void start() {
    if (transmitting_ || pending_.empty()) return;
    const auto winner = std::min_element(pending_.begin(), pending_.end(),
                                         [](const Frame& a, const Frame& b) {
                                           if (a.id != b.id) return a.id < b.id;
                                           return a.sequence < b.sequence;
                                         });
    transmitting_ = std::move(*winner);
    pending_.erase(winner);
    const Time tx = tx_time(CanBus::frame_bits(transmitting_->payload_size));
    if (const std::optional<Time> hit = error_within(tx)) {
      ++errors_;
      const Time recovery = *hit + tx_time(CanBus::kErrorRecoveryBits);
      account_busy(recovery);
      simulator().schedule_in(recovery, [this] {
        pending_.push_back(std::move(*transmitting_));  // keeps its sequence
        transmitting_.reset();
        start();
      });
      return;
    }
    account_busy(tx);
    simulator().schedule_in(tx, [this] {
      deliver(*transmitting_);
      transmitting_.reset();
      start();
    });
  }

  std::optional<Time> error_within(Time tx) {
    const double now_s = simulator().now().to_seconds();
    const double tx_s = tx.to_seconds();
    double hit_s = std::numeric_limits<double>::infinity();
    if (model_.poisson_rate_per_s > 0.0) {
      while (next_error_s_ < now_s) next_error_s_ += rng_.exponential(model_.poisson_rate_per_s);
      if (next_error_s_ < now_s + tx_s) {
        hit_s = next_error_s_ - now_s;
        next_error_s_ += rng_.exponential(model_.poisson_rate_per_s);
      }
    }
    if (model_.per_attempt_prob > 0.0 && rng_.bernoulli(model_.per_attempt_prob))
      hit_s = std::min(hit_s, tx_s);
    if (!std::isfinite(hit_s)) return std::nullopt;
    return Time::seconds(hit_s);
  }

  std::vector<Frame> pending_;
  std::optional<Frame> transmitting_;
  CanErrorModel model_;
  ev::util::Rng rng_;
  double next_error_s_ = std::numeric_limits<double>::infinity();
  std::size_t errors_ = 0;
};

// What a subscriber sees of one delivery: (id, source, sequence, when).
using DeliveryRecord = std::tuple<std::uint32_t, NodeId, std::uint64_t, Time>;

// One send of the arbitration-order loads; its index in the load is the
// frame's source, so every delivery names the send it came from.
struct TimedSend {
  Time at;
  std::uint32_t id;
  std::size_t bytes;
};

void record_into(Bus& bus, std::vector<DeliveryRecord>& out) {
  bus.subscribe([&out](const Frame& f, Time at) {
    out.emplace_back(f.id, f.source, f.sequence, at);
  });
}

TEST(ArbitrationOrder, CanMatchesLinearScanWithRetransmissions) {
  constexpr double kBitRate = 500e3;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ev::util::Rng rng(seed);
    // About 150% of the bus for 200 ms from three ids (so most contenders
    // tie on id), bursts of equal ids at one instant, and a few oversized
    // frames the bus rejects.
    std::vector<TimedSend> sends;
    const auto id = [&rng] { return 0x120 + static_cast<std::uint32_t>(rng.uniform_int(0, 2)); };
    for (int i = 0; i < 1200; ++i)
      sends.push_back({Time::ns(rng.uniform_int(0, 200'000'000)), id(),
                       static_cast<std::size_t>(rng.uniform_int(0, 9))});
    for (int b = 0; b < 20; ++b) {
      const Time at = Time::ns(rng.uniform_int(0, 200'000'000));
      const std::uint32_t burst_id = id();
      for (int i = 0; i < 8; ++i) sends.push_back({at, burst_id, 8});
    }
    for (const bool armed : {false, true}) {
      CanErrorModel model;
      if (armed) {
        model.poisson_rate_per_s = 300.0;
        model.per_attempt_prob = 0.1;
        model.seed = seed + 100;
      }
      Simulator sim, oracle_sim;
      CanBus bus(sim, "can", kBitRate);
      LinearScanCan oracle(oracle_sim, kBitRate, model);
      bus.arm_error_model(model);
      std::vector<DeliveryRecord> got, want;
      record_into(bus, got);
      record_into(oracle, want);
      std::size_t accepted = 0;
      for (std::size_t i = 0; i < sends.size(); ++i) {
        Frame f;
        f.id = sends[i].id;
        f.source = static_cast<NodeId>(i);
        f.payload_size = sends[i].bytes;
        sim.schedule_at(sends[i].at, [&bus, f, &accepted] { accepted += bus.send(f) ? 1 : 0; });
        oracle_sim.schedule_at(sends[i].at, [&oracle, f] { (void)oracle.send(f); });
      }
      sim.run();
      oracle_sim.run();
      ASSERT_EQ(got.size(), accepted) << "seed " << seed;  // errors never lose frames
      EXPECT_EQ(got, want) << "seed " << seed << (armed ? " armed" : " clean");
      EXPECT_EQ(bus.fault_error_count(), oracle.errors()) << "seed " << seed;
      if (armed) {
        EXPECT_GT(bus.fault_error_count(), 0u) << "seed " << seed;
      }
      EXPECT_EQ(bus.utilization(), oracle.utilization()) << "seed " << seed;
    }
  }
}

TEST(ArbitrationOrder, FlexRayDynamicMatchesPerCycleSort) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Simulator sim;
    FlexRayConfig cfg = small_flexray();
    cfg.minislot_count = 20;  // 100 us of dynamic segment per cycle
    FlexRayBus bus(sim, "fr", cfg);
    const Time cycle = Time::seconds(bus.cycle_time_s());
    ev::util::Rng rng(seed);

    // About twice what the dynamic segment carries for 40 ms, from a few ids
    // (with bursts of one id at one instant), then time to drain. No send
    // falls on a cycle start, so "sent before the cycle" is unambiguous.
    std::vector<TimedSend> sends;
    const auto id = [&rng] {
      return rng.bernoulli(0.8) ? 0x100 + static_cast<std::uint32_t>(rng.uniform_int(0, 2))
                                : static_cast<std::uint32_t>(rng.uniform_int(0x100, 0x1FF));
    };
    const auto bytes = [&rng] { return static_cast<std::size_t>(rng.uniform_int(2, 64)); };
    for (int i = 0; i < 500; ++i)
      sends.push_back({Time::ns(rng.uniform_int(0, 40'000'000)), id(), bytes()});
    for (int b = 0; b < 10; ++b) {
      const Time at = Time::ns(rng.uniform_int(0, 40'000'000));
      const std::uint32_t burst_id = id();
      for (int i = 0; i < 6; ++i) sends.push_back({at, burst_id, bytes()});
    }
    for (TimedSend& s : sends)
      if (s.at % cycle == Time{}) s.at += Time::ns(1);
    std::stable_sort(sends.begin(), sends.end(),
                     [](const TimedSend& a, const TimedSend& b) { return a.at < b.at; });

    std::vector<DeliveryRecord> got;
    record_into(bus, got);
    for (std::size_t i = 0; i < sends.size(); ++i) {
      Frame f;
      f.id = sends[i].id;
      f.source = static_cast<NodeId>(i);
      f.payload_size = sends[i].bytes;
      sim.schedule_at(sends[i].at, [&bus, f] { ASSERT_TRUE(bus.send(f)); });
    }
    bus.start();
    sim.run_until(Time::ms(200));

    // Reference: at each cycle start every frame sent before it is pending,
    // sorted by (id, sequence) and served while it fits the minislots left.
    // Sends are scheduled in time order, so a frame's sequence is its index.
    const double budget_s = static_cast<double>(cfg.minislot_count) * cfg.minislot_s;
    std::vector<std::size_t> pending;
    std::vector<DeliveryRecord> want;
    std::size_t next = 0;
    std::size_t carried_cycles = 0;
    for (Time start{}; next < sends.size() || !pending.empty(); start += cycle) {
      while (next < sends.size() && sends[next].at < start) pending.push_back(next++);
      std::sort(pending.begin(), pending.end(), [&](std::size_t a, std::size_t b) {
        if (sends[a].id != sends[b].id) return sends[a].id < sends[b].id;
        return a < b;
      });
      double used_s = 0.0;
      std::size_t served = 0;
      for (const std::size_t i : pending) {
        const double tx_s =
            static_cast<double>(FlexRayBus::frame_bits(sends[i].bytes)) / bus.bit_rate();
        const double occupied_s = std::ceil(tx_s / cfg.minislot_s) * cfg.minislot_s;
        if (used_s + occupied_s > budget_s) break;
        want.emplace_back(sends[i].id, static_cast<NodeId>(i), i,
                          start + Time::seconds(bus.static_segment_s() + used_s + tx_s));
        used_s += occupied_s;
        ++served;
      }
      pending.erase(pending.begin(), pending.begin() + static_cast<std::ptrdiff_t>(served));
      if (!pending.empty()) ++carried_cycles;
    }
    EXPECT_GT(carried_cycles, 50u) << "seed " << seed;  // the budget overflowed
    ASSERT_LT(std::get<3>(want.back()), Time::ms(200)) << "seed " << seed;
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

// ----------------------------------------------------------------- MOST ----

TEST(Most, SynchronousStreamConstantLatency) {
  Simulator sim;
  MostBus bus(sim, "most", {{0x800, 8}});
  ev::util::SampleSeries lat;
  bus.subscribe([&](const Frame& f, Time at) {
    if (f.id == 0x800) lat.add((at - f.created).to_seconds());
  });
  bus.start();
  sim.schedule_periodic(Time::ms(1), Time::ms(5), [&] {
    Frame f;
    f.id = 0x800;
    f.payload_size = 8;
    (void)bus.send(f);
  });
  sim.run_until(Time::s(1));
  ASSERT_GT(lat.count(), 50u);
  EXPECT_NEAR(lat.max(), bus.frame_period_s(), 1e-6);
  EXPECT_NEAR(lat.min(), bus.frame_period_s(), 1e-6);
}

TEST(Most, AsyncLargeTransferFragmented) {
  Simulator sim;
  MostBus bus(sim, "most", {});
  int delivered = 0;
  bus.subscribe([&](const Frame&, Time) { ++delivered; });
  Frame f;
  f.id = 0x900;
  f.payload_size = 16384;  // needs hundreds of frames of async budget
  ASSERT_TRUE(bus.send(f));
  bus.start();
  sim.run_until(Time::ms(3));
  EXPECT_EQ(delivered, 0);  // still in flight
  sim.run_until(Time::ms(500));
  EXPECT_EQ(delivered, 1);
}

TEST(Most, IdleStartedBusStopsItsFrameClock) {
  Simulator sim;
  MostBus bus(sim, "most", {});
  bus.start();
  sim.run_until(Time::s(1));
  // One idle frame stops the clock; an eager clock would tick 44,100 times.
  EXPECT_LE(sim.dispatched(), 1u);
}

TEST(Most, DormantSendOnAFrameBoundaryIsServedInThatFrame) {
  Simulator sim;
  MostBus bus(sim, "most", {});
  const Time period = Time::seconds(bus.frame_period_s());
  std::vector<Time> delivered_at;
  bus.subscribe([&](const Frame&, Time at) { delivered_at.push_back(at); });
  bus.start();
  const Time boundary = period * 100;
  // A long-lag sender, enqueued 2.3 ms (about 100 frames) before it fires.
  sim.schedule_at(boundary, [&] {
    Frame f;
    f.id = 0x900;
    f.payload_size = 8;
    (void)bus.send(f);
  });
  sim.run_until(Time::ms(10));
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(delivered_at[0], boundary + period);
}

TEST(Most, SendAtTheInstantTheClockStoppedWaitsForTheNextBoundary) {
  Simulator sim;
  MostBus bus(sim, "most", {});
  const Time period = Time::seconds(bus.frame_period_s());
  std::vector<std::pair<std::uint32_t, Time>> delivered;
  bool replied = false;
  bus.subscribe([&](const Frame& f, Time at) {
    delivered.emplace_back(f.id, at);
    if (replied) return;
    replied = true;
    // Same instant as the idle frame that stopped the clock.
    Frame reply;
    reply.id = 0x901;
    reply.payload_size = 8;
    (void)bus.send(reply);
  });
  Frame f;
  f.id = 0x900;
  f.payload_size = 8;
  ASSERT_TRUE(bus.send(f));
  bus.start();  // frame 0 carries f; frame 1 is idle and stops the clock
  sim.run_until(Time::ms(1));
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], std::make_pair(std::uint32_t{0x900}, period));
  EXPECT_EQ(delivered[1], std::make_pair(std::uint32_t{0x901}, period * 3));
}

TEST(Most, OnDemandClockMatchesAnEagerFrameGrid) {
  // Test-local reference: an eager loop over every frame boundary k·T
  // serving a FIFO byte budget, as a MOST clock that never stops would.
  struct Send {
    Time at;
    std::uint32_t id;
    std::size_t bytes;
    Time lag;  // how long before `at` the sender enqueued the send
  };
  constexpr double kBitRate = 25e6;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Simulator sim;
    MostBus bus(sim, "most", {{0x800, 8}}, kBitRate);
    const Time period = Time::seconds(bus.frame_period_s());
    const Time until = Time::s(1);
    ev::util::Rng rng(seed);

    std::vector<Send> sends;
    std::set<Time> used;
    const auto add = [&](Time at, std::size_t bytes, Time lag) {
      if (!used.insert(at).second) return;  // one send per instant: FIFO is unambiguous
      sends.push_back({at, 0x900 + static_cast<std::uint32_t>(sends.size()), bytes, lag});
    };
    // A babbler: 1-byte frames every 100 us for 6.4 ms.
    const Time babble_start = Time::ms(300) + Time::ns(rng.uniform_int(0, 99'999));
    for (int i = 0; i < 64; ++i) add(babble_start + Time::us(100) * i, 1, Time::us(100));
    for (int i = 0; i < 300; ++i) {
      // Random instants and exact frame boundaries, gateway-like (200 us) or
      // periodic-source (5 ms) lags, payloads of up to about four frames.
      const bool on_boundary = rng.bernoulli(0.3);
      const Time at = on_boundary ? period * rng.uniform_int(250, 22'000)
                                  : Time::ns(rng.uniform_int(5'000'000, 500'000'000));
      add(at, static_cast<std::size_t>(rng.uniform_int(1, 200)),
          rng.bernoulli(0.5) ? Time::us(200) : Time::ms(5));
    }

    std::vector<std::pair<std::uint32_t, Time>> observed;
    bus.subscribe([&](const Frame& f, Time at) {
      if (f.id != 0x800) observed.emplace_back(f.id, at);
    });
    for (const Send& s : sends) {
      sim.schedule_at(s.at - s.lag, [&sim, &bus, s] {
        sim.schedule_in(s.lag, [&bus, s] {
          Frame f;
          f.id = s.id;
          f.payload_size = s.bytes;
          (void)bus.send(f);
        });
      });
    }
    // The synchronous stream keeps its constant-latency path alongside.
    sim.schedule_periodic(Time::ms(1), Time::ms(5), [&bus] {
      Frame f;
      f.id = 0x800;
      f.payload_size = 8;
      (void)bus.send(f);
    });
    bus.start();
    sim.run_until(until);

    std::vector<Send> fifo = sends;
    std::sort(fifo.begin(), fifo.end(),
              [](const Send& a, const Send& b) { return a.at < b.at; });
    const auto tx = [&](std::size_t bytes) {
      return Time::seconds(static_cast<double>(bytes * 8) / kBitRate);
    };
    std::vector<std::pair<std::uint32_t, Time>> expected;
    Time busy{};
    std::size_t next = 0;
    std::size_t head = 0;
    std::size_t progress = 0;
    for (Time frame{}; frame <= until; frame += period) {
      // A send at a boundary was enqueued more than a frame earlier, so it
      // runs before that boundary's frame.
      while (next < fifo.size() && fifo[next].at <= frame) ++next;
      std::size_t budget = bus.async_bytes_per_frame();
      while (head < next && budget > 0) {
        const std::size_t remaining = fifo[head].bytes - progress;
        if (remaining > budget) {
          progress += budget;
          busy += tx(budget);
          break;
        }
        budget -= remaining;
        busy += tx(remaining);
        if (frame + period <= until) expected.emplace_back(fifo[head].id, frame + period);
        ++head;
        progress = 0;
      }
    }
    ASSERT_EQ(head, fifo.size()) << "reference did not drain; seed " << seed;
    // Synchronous bytes are accounted per send, identically on both sides.
    for (Time t = Time::ms(1); t <= until; t += Time::ms(5)) busy += tx(8);

    EXPECT_EQ(observed, expected) << "seed " << seed;
    EXPECT_EQ(bus.utilization(), busy.to_seconds() / until.to_seconds()) << "seed " << seed;
  }
}

TEST(Most, SyncReservationBoundsChecked) {
  Simulator sim;
  EXPECT_THROW(MostBus(sim, "most", {{0x1, 100}, {0x2, 100}}, 25e6, 44100.0),
               std::invalid_argument);
}

// ------------------------------------------------------------- Ethernet ----

TEST(Ethernet, RoutesToDestination) {
  Simulator sim;
  EthernetSwitch sw(sim, "eth", 4);
  sw.attach(1, 0);
  sw.attach(2, 1);
  sw.add_route(0x10, EthRoute{{1}, EthClass::kBestEffort});
  int delivered = 0;
  sw.subscribe([&](const Frame&, Time) { ++delivered; });
  Frame f;
  f.id = 0x10;
  f.source = 1;
  f.payload_size = 100;
  EXPECT_TRUE(sw.send(f));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Ethernet, UnknownSourceOrRouteRejected) {
  Simulator sim;
  EthernetSwitch sw(sim, "eth", 2);
  sw.attach(1, 0);
  Frame f;
  f.id = 0x10;
  f.source = 99;
  EXPECT_FALSE(sw.send(f));
  f.source = 1;
  EXPECT_FALSE(sw.send(f));  // no route
}

TEST(Ethernet, LatencyMatchesStoreAndForward) {
  Simulator sim;
  EthernetSwitch sw(sim, "eth", 2, 100e6, 4e-6);
  sw.attach(1, 0);
  sw.add_route(0x10, EthRoute{{1}, EthClass::kBestEffort});
  double latency = 0.0;
  sw.subscribe([&](const Frame& f, Time at) { latency = (at - f.created).to_seconds(); });
  Frame f;
  f.id = 0x10;
  f.source = 1;
  f.payload_size = 100;
  ASSERT_TRUE(sw.send(f));
  sim.run();
  const double wire = EthernetSwitch::frame_bits(100) / 100e6;
  EXPECT_NEAR(latency, 2 * wire + 4e-6, 1e-7);  // uplink + forward + egress
}

TEST(Ethernet, StrictPriorityPreemptsQueueOrder) {
  Simulator sim;
  EthernetSwitch sw(sim, "eth", 2);
  sw.attach(1, 0);
  sw.add_route(0x10, EthRoute{{1}, EthClass::kBestEffort});
  sw.add_route(0x20, EthRoute{{1}, EthClass::kTimeTriggered});
  std::vector<std::uint32_t> order;
  sw.subscribe([&](const Frame& f, Time) { order.push_back(f.id); });
  // Burst of best-effort, then one TT frame right behind.
  Frame be;
  be.id = 0x10;
  be.source = 1;
  be.payload_size = 1500;
  Frame tt;
  tt.id = 0x20;
  tt.source = 1;
  tt.payload_size = 64;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(sw.send(be));
  ASSERT_TRUE(sw.send(tt));
  sim.run();
  ASSERT_EQ(order.size(), 4u);
  // The TT frame overtakes queued best-effort frames at the egress.
  EXPECT_NE(order.back(), 0x20u);
}

TEST(Ethernet, CbsThrottlesClassA) {
  Simulator sim;
  EthernetSwitch sw(sim, "eth", 2);
  sw.attach(1, 0);
  sw.add_route(0x30, EthRoute{{1}, EthClass::kAvbClassA});
  sw.enable_cbs(1, 0.10);  // only 10% of line rate for class A
  sw.subscribe([](const Frame&, Time) {});
  // Saturating class-A burst.
  sim.schedule_periodic(Time{}, Time::us(50), [&] {
    Frame f;
    f.id = 0x30;
    f.source = 1;
    f.payload_size = 1000;
    (void)sw.send(f);
  });
  sim.run_until(Time::ms(100));
  // Egress throughput limited to ~10% of 100 Mbit/s = ~1.25 kB/ms.
  const double goodput_bps =
      static_cast<double>(sw.delivered_payload_bytes()) * 8.0 / 0.1;
  EXPECT_LT(goodput_bps, 0.18 * 100e6);
}

TEST(Ethernet, TimeAwareGateDelaysUntilWindow) {
  Simulator sim;
  EthernetSwitch sw(sim, "eth", 2);
  sw.attach(1, 0);
  sw.add_route(0x40, EthRoute{{1}, EthClass::kTimeTriggered});
  GateSchedule gs;
  gs.cycle_s = 1e-3;
  gs.windows.push_back(GateWindow{0.5e-3, 0.2e-3, true});   // TT window
  gs.windows.push_back(GateWindow{0.0, 0.5e-3, false});     // the rest
  gs.windows.push_back(GateWindow{0.7e-3, 0.3e-3, false});
  sw.set_gate_schedule(1, gs);
  Time delivered_at;
  sw.subscribe([&](const Frame&, Time at) { delivered_at = at; });
  Frame f;
  f.id = 0x40;
  f.source = 1;
  f.payload_size = 64;
  sim.schedule_at(Time::us(100), [&] { ASSERT_TRUE(sw.send(f)); });
  sim.run_until(Time::ms(2));
  // The frame waits for the 0.5 ms TT window.
  EXPECT_GE(delivered_at.to_seconds(), 0.5e-3);
  EXPECT_LE(delivered_at.to_seconds(), 0.75e-3);
}

TEST(Ethernet, MulticastFanOut) {
  Simulator sim;
  EthernetSwitch sw(sim, "eth", 4);
  sw.attach(1, 0);
  sw.add_route(0x50, EthRoute{{1, 2, 3}, EthClass::kBestEffort});
  int delivered = 0;
  sw.subscribe([&](const Frame&, Time) { ++delivered; });
  Frame f;
  f.id = 0x50;
  f.source = 1;
  ASSERT_TRUE(sw.send(f));
  sim.run();
  EXPECT_EQ(delivered, 3);
}

TEST(Ethernet, MinimumFramePadding) {
  EXPECT_EQ(EthernetSwitch::frame_bits(1), EthernetSwitch::frame_bits(46));
  EXPECT_GT(EthernetSwitch::frame_bits(100), EthernetSwitch::frame_bits(46));
}

// -------------------------------------------------------------- gateway ----

TEST(Gateway, ForwardsAndTranslates) {
  Simulator sim;
  CanBus a(sim, "a", 500e3);
  CanBus b(sim, "b", 500e3);
  Gateway gw(sim, "gw", 100e-6);
  gw.add_route({&a, 0x10, &b, 0x99, 4});
  std::vector<std::uint32_t> seen;
  b.subscribe([&](const Frame& f, Time) { seen.push_back(f.id); });
  Frame f;
  f.id = 0x10;
  f.payload_size = 8;
  ASSERT_TRUE(a.send(f));
  sim.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 0x99u);
  EXPECT_EQ(gw.forwarded_count(), 1u);
}

TEST(Gateway, PreservesEndToEndTimestamp) {
  Simulator sim;
  CanBus a(sim, "a", 500e3);
  CanBus b(sim, "b", 500e3);
  Gateway gw(sim, "gw", 200e-6);
  gw.add_route({&a, 0x10, &b, 0x10, 0});
  double e2e = 0.0;
  b.subscribe([&](const Frame& f, Time at) { e2e = (at - f.created).to_seconds(); });
  // Send at t > 0: a zero `created` stamp is the "unset" sentinel, so a
  // frame genuinely created at t = 0 would be re-stamped by the second bus.
  sim.schedule_at(Time::ms(1), [&] {
    Frame f;
    f.id = 0x10;
    f.payload_size = 8;
    ASSERT_TRUE(a.send(f));
  });
  sim.run();
  // Two CAN transmissions (270 us each) + 200 us gateway processing.
  EXPECT_NEAR(e2e, 2 * 270e-6 + 200e-6, 5e-6);
}

TEST(Gateway, CountsDropsOnRejectingTarget) {
  Simulator sim;
  CanBus a(sim, "a", 500e3);
  LinBus b(sim, "b", {{0x10, 1, 2}});
  Gateway gw(sim, "gw");
  gw.add_route({&a, 0x20, &b, 0x42, 0});  // 0x42 has no LIN slot
  Frame f;
  f.id = 0x20;
  f.payload_size = 8;
  ASSERT_TRUE(a.send(f));
  sim.run();
  EXPECT_EQ(gw.dropped_count(), 1u);
}

TEST(Gateway, ObserverCountsForwardsDropsAndHopLatency) {
  Simulator sim;
  ev::obs::MetricsRegistry metrics;
  CanBus a(sim, "a", 500e3);
  CanBus b(sim, "b", 500e3);
  LinBus c(sim, "c", {{0x10, 1, 2}});
  Gateway gw(sim, "gw", 150e-6);
  gw.attach_observer(metrics);
  gw.add_route({&a, 0x10, &b, 0x10, 0});
  gw.add_route({&a, 0x20, &c, 0x42, 0});  // 0x42 has no LIN slot -> dropped
  Frame ok;
  ok.id = 0x10;
  ok.payload_size = 8;
  Frame doomed;
  doomed.id = 0x20;
  doomed.payload_size = 8;
  ASSERT_TRUE(a.send(ok));
  ASSERT_TRUE(a.send(doomed));
  sim.run();
  EXPECT_EQ(metrics.counter_value(metrics.counter("net.gw.gw.forwarded")), 1u);
  EXPECT_EQ(metrics.counter_value(metrics.counter("net.gw.gw.dropped")), 1u);
  // Per-hop processing latency: both frames were measured, and each hop
  // took at least the 150 us processing delay.
  const auto& stats = metrics.histogram_stats(
      metrics.histogram("net.gw.gw.hop_latency_us", 0.0, 1e4, 64));
  ASSERT_EQ(stats.count(), 2u);
  EXPECT_GE(stats.min(), 150.0);
}

// ------------------------------------------------------------- topology ----

TEST(Figure1, BuildsFiveBuses) {
  Simulator sim;
  Figure1Network net(sim);
  EXPECT_EQ(net.buses().size(), 5u);
  EXPECT_GT(net.sources().size(), 15u);
}

TEST(Figure1, TrafficFlowsEverywhere) {
  Simulator sim;
  Figure1Network net(sim);
  net.start();
  sim.run_until(Time::s(5));
  for (Bus* bus : net.buses()) {
    EXPECT_GT(bus->delivered_count(), 10u) << bus->name();
    EXPECT_GT(bus->utilization(), 0.0) << bus->name();
    EXPECT_LT(bus->utilization(), 1.0) << bus->name();
  }
  EXPECT_GT(net.gateway().forwarded_count(), 50u);
}

TEST(Figure1, CrossDomainFlowsMeasured) {
  Simulator sim;
  Figure1Network net(sim);
  net.start();
  sim.run_until(Time::s(5));
  ASSERT_EQ(net.flow_latency().size(), 3u);
  for (const auto& [name, series] : net.flow_latency()) {
    EXPECT_GT(series.count(), 10u) << name;
    EXPECT_LT(series.max(), 0.2) << name;  // cross-domain within 200 ms
  }
}

TEST(Figure1, LoadScaleIncreasesUtilization) {
  Simulator sim_lo;
  Figure1Config lo;
  lo.load_scale = 0.5;
  Figure1Network net_lo(sim_lo, lo);
  net_lo.start();
  sim_lo.run_until(Time::s(3));

  Simulator sim_hi;
  Figure1Config hi;
  hi.load_scale = 2.0;
  Figure1Network net_hi(sim_hi, hi);
  net_hi.start();
  sim_hi.run_until(Time::s(3));

  EXPECT_GT(net_hi.safety_can().utilization(), net_lo.safety_can().utilization());
}

// Runs the Fig. 1 network for 30 s and checks every bus's and every flow's
// constant-size latency summary against a SampleSeries that keeps every
// delivered sample: count, mean, min and max must agree bit for bit.
void expect_summaries_match_samples(bool faulted) {
  Simulator sim;
  Figure1Network net(sim);
  const std::vector<Bus*> buses = net.buses();
  std::vector<ev::util::SampleSeries> bus_samples(buses.size());
  for (std::size_t i = 0; i < buses.size(); ++i) {
    buses[i]->subscribe([&series = bus_samples[i]](const Frame& f, Time at) {
      series.add((at - f.created).to_seconds());
    });
  }
  // Destination bus and wire id of each monitored flow (topology.cpp).
  struct Probe {
    Bus* bus;
    std::uint32_t id;
  };
  const std::map<std::string, Probe> probes{
      {"wheel-speed->dashboard", {&net.comfort_can(), 0x340}},
      {"bms->infotainment", {&net.infotainment_most(), kFrameIdBmsOnMost}},
      {"crash->chassis", {&net.chassis_flexray(), kFrameIdCrashOnChassis}}};
  std::map<std::string, ev::util::SampleSeries> flow_samples;
  for (const auto& [name, probe] : probes) {
    probe.bus->subscribe([&series = flow_samples[name], id = probe.id](const Frame& f,
                                                                        Time at) {
      if (f.id == id) series.add((at - f.created).to_seconds());
    });
  }
  if (faulted) {
    // Drop and corrupt a few deliveries on every bus, every 50 ms.
    sim.schedule_periodic(Time::ms(7), Time::ms(50), [&buses] {
      for (Bus* bus : buses) {
        bus->inject_drop(1);
        bus->inject_corruption(2);
      }
    });
  }
  net.start();
  sim.run_until(Time::s(30));

  const auto expect_match = [](const ev::util::RunningStats& stats,
                               const ev::util::SampleSeries& series, const std::string& what) {
    const ev::util::SeriesSummary summary = ev::util::summarize(stats);
    EXPECT_GT(series.count(), 0u) << what;
    EXPECT_EQ(summary.count, series.count()) << what;
    EXPECT_EQ(summary.mean, series.mean()) << what;
    EXPECT_EQ(summary.min, series.min()) << what;
    EXPECT_EQ(summary.max, series.max()) << what;
  };
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < buses.size(); ++i) {
    expect_match(buses[i]->latency(), bus_samples[i], buses[i]->name());
    EXPECT_EQ(buses[i]->delivered_count(), bus_samples[i].count()) << buses[i]->name();
    dropped += buses[i]->fault_dropped_count() + buses[i]->fault_corrupted_count();
  }
  EXPECT_EQ(dropped > 0, faulted);
  ASSERT_EQ(net.flow_latency().size(), probes.size());
  for (const auto& [name, stats] : net.flow_latency()) {
    ASSERT_EQ(flow_samples.count(name), 1u) << name;
    expect_match(stats, flow_samples.at(name), name);
  }
}

TEST(Network, LatencySummaryMatchesEverySample) {
  expect_summaries_match_samples(false);
  expect_summaries_match_samples(true);
}

TEST(Network, IdleBusAndFlowSummariesReadZero) {
  // Never started: no bus delivers and no flow sees a frame.
  Simulator sim;
  Figure1Network net(sim);
  sim.run_until(Time::s(1));
  std::vector<const ev::util::RunningStats*> idle;
  for (const Bus* bus : net.buses()) idle.push_back(&bus->latency());
  for (const auto& [name, stats] : net.flow_latency()) idle.push_back(&stats);
  ASSERT_EQ(idle.size(), 8u);
  for (const ev::util::RunningStats* stats : idle) {
    // The raw summary keeps its empty identities ...
    EXPECT_EQ(stats->count(), 0u);
    EXPECT_EQ(stats->max(), -std::numeric_limits<double>::infinity());
    // ... and the reading the latency tables print is 0, as an empty
    // SampleSeries reads.
    const ev::util::SeriesSummary summary = ev::util::summarize(*stats);
    EXPECT_EQ(summary.count, 0u);
    EXPECT_EQ(summary.mean, 0.0);
    EXPECT_EQ(summary.min, 0.0);
    EXPECT_EQ(summary.max, 0.0);
    EXPECT_EQ(ev::util::fmt(summary.mean * 1e3, 3) + " ms", "0.000 ms");
    EXPECT_EQ(ev::util::fmt(summary.max * 1e3, 3) + " ms", "0.000 ms");
  }
}

}  // namespace

// Unit tests for the middleware: partitions (temporal isolation, fault
// containment), publish/subscribe determinism, the SOA registry, and the
// time-triggered dispatcher.
#include <gtest/gtest.h>

#include "ev/middleware/middleware.h"
#include "ev/middleware/partition.h"
#include "ev/middleware/pubsub.h"
#include "ev/middleware/services.h"
#include "ev/obs/metrics.h"
#include "ev/sim/simulator.h"

namespace {

using namespace ev::middleware;
using ev::sim::Simulator;
using ev::sim::Time;

// Empty payload for raw-broker tests.
constexpr std::span<const std::uint8_t> kNoBytes{};

Runnable ok_runnable(const std::string& name, std::int64_t period_us,
                     std::int64_t wcet_us, int* counter = nullptr) {
  return Runnable{name, period_us, wcet_us, [counter] {
                    if (counter) ++*counter;
                    return RunOutcome::kOk;
                  }};
}

// ------------------------------------------------------------ partition ----

TEST(Partition, ExecutesDueJobs) {
  Partition p("app", 1000);
  int runs = 0;
  p.deploy(ok_runnable("r", 10000, 200, &runs));
  (void)p.execute_window(0, 1000);
  EXPECT_EQ(runs, 1);
  // Not due again until the period elapses.
  (void)p.execute_window(5000, 1000);
  EXPECT_EQ(runs, 1);
  (void)p.execute_window(10000, 1000);
  EXPECT_EQ(runs, 2);
}

TEST(Partition, BudgetDefersJobs) {
  Partition p("app", 500);
  int a = 0, b = 0;
  p.deploy(ok_runnable("a", 10000, 400, &a));
  p.deploy(ok_runnable("b", 10000, 400, &b));
  (void)p.execute_window(0, 500);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 0);  // would exceed the window
  EXPECT_EQ(p.jobs_deferred(), 1u);
  // The deferred job runs in the next window.
  (void)p.execute_window(100, 500);
  EXPECT_EQ(b, 1);
}

TEST(Partition, CrashStopsPartition) {
  Partition p("app", 1000);
  p.deploy(Runnable{"bad", 10000, 100, [] { return RunOutcome::kCrash; }});
  int later = 0;
  p.deploy(ok_runnable("later", 10000, 100, &later));
  (void)p.execute_window(0, 1000);
  EXPECT_EQ(p.health(), PartitionHealth::kStopped);
  EXPECT_EQ(p.fault_count(), 1u);
  EXPECT_EQ(later, 0);  // jobs after the crash are not executed
  // Stopped partitions consume nothing.
  EXPECT_EQ(p.execute_window(10000, 1000), 0);
  p.restart();
  EXPECT_EQ(p.health(), PartitionHealth::kHealthy);
}

TEST(Partition, OverrunConsumesWholeWindow) {
  Partition p("app", 1000);
  p.deploy(Runnable{"hog", 10000, 100, [] { return RunOutcome::kOverrun; }});
  const std::int64_t consumed = p.execute_window(0, 1000);
  EXPECT_EQ(consumed, 1000);
  EXPECT_EQ(p.health(), PartitionHealth::kStopped);
}

TEST(Partition, RejectsInvalidDeployments) {
  Partition p("app", 1000);
  EXPECT_THROW(p.deploy(Runnable{"x", 1000, 100, nullptr}), std::invalid_argument);
  EXPECT_THROW(p.deploy(Runnable{"x", 0, 100, [] { return RunOutcome::kOk; }}),
               std::invalid_argument);
  EXPECT_THROW(Partition("zero", 0), std::invalid_argument);
}

TEST(Partition, CpuTimeAccounted) {
  Partition p("app", 1000);
  p.deploy(ok_runnable("r", 10000, 300));
  (void)p.execute_window(0, 1000);
  (void)p.execute_window(10000, 1000);
  EXPECT_EQ(p.cpu_time_us(), 600);
}

// -------------------------------------------------------------- pub/sub ----

TEST(PubSub, DeliversOnFlushOnly) {
  PubSubBroker broker;
  int received = 0;
  broker.subscribe(7, [&](const SampleView&) { ++received; });
  Topic<double>(broker, 7).publish(1.0, 0);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(broker.backlog(), 1u);
  broker.flush();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(broker.backlog(), 0u);
}

TEST(PubSub, MultipleSubscribersFanOut) {
  PubSubBroker broker;
  int a = 0, b = 0;
  broker.subscribe(1, [&](const SampleView&) { ++a; });
  broker.subscribe(1, [&](const SampleView&) { ++b; });
  broker.publish(1, kNoBytes, 0);
  broker.flush();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(broker.delivered(), 2u);
}

TEST(PubSub, PublicationsDuringFlushDeferred) {
  PubSubBroker broker;
  int second = 0;
  broker.subscribe(1, [&](const SampleView&) { broker.publish(2, kNoBytes, 1); });
  broker.subscribe(2, [&](const SampleView&) { ++second; });
  broker.publish(1, kNoBytes, 0);
  broker.flush();
  EXPECT_EQ(second, 0);  // chained publication waits for the next flush
  broker.flush();
  EXPECT_EQ(second, 1);
}

TEST(PubSub, TypedTopicRoundTrip) {
  const double value = 3.14159;
  const SampleView s{
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(&value), sizeof value),
      42};
  EXPECT_DOUBLE_EQ(Topic<double>::decode(s), 3.14159);
  // Decoding with the wrong payload type is a detected error, not garbage.
  const std::uint8_t two_bytes[] = {1, 2};
  EXPECT_THROW((void)Topic<double>::decode(SampleView{two_bytes, 0}), std::invalid_argument);
}

TEST(PubSub, TypedTopicCarriesPodStructs) {
  struct WheelSpeeds {
    double fl, fr, rl, rr;
  };
  PubSubBroker broker;
  Topic<WheelSpeeds> topic(broker, 11);
  WheelSpeeds seen{};
  std::int64_t seen_at = -1;
  topic.subscribe([&](const WheelSpeeds& w, const SampleView& s) {
    seen = w;
    seen_at = s.published_us;
  });
  topic.publish(WheelSpeeds{1.0, 2.0, 3.0, 4.0}, 500);
  broker.flush();
  EXPECT_DOUBLE_EQ(seen.fl, 1.0);
  EXPECT_DOUBLE_EQ(seen.rr, 4.0);
  EXPECT_EQ(seen_at, 500);
}

TEST(PubSub, TopicsAreIndependent) {
  PubSubBroker broker;
  int received = 0;
  broker.subscribe(1, [&](const SampleView&) { ++received; });
  broker.publish(2, kNoBytes, 0);  // different topic
  broker.flush();
  EXPECT_EQ(received, 0);
}

TEST(PubSub, SpanPublishDeliversExactBytes) {
  PubSubBroker broker;
  const std::uint8_t payload[] = {0xde, 0xad, 0xbe, 0xef};
  std::vector<std::uint8_t> seen;
  std::int64_t seen_at = -1;
  broker.subscribe(4, [&](const SampleView& s) {
    seen.assign(s.data.begin(), s.data.end());
    seen_at = s.published_us;
  });
  broker.publish(4, std::span<const std::uint8_t>(payload, sizeof payload), 77);
  broker.flush();
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));
  EXPECT_EQ(seen_at, 77);
}

TEST(PubSub, InterleavedPayloadsStayIntact) {
  // Multiple pending payloads of different sizes share the arena; each view
  // must cover exactly its own bytes.
  PubSubBroker broker;
  std::vector<std::vector<std::uint8_t>> seen;
  broker.subscribe(1, [&](const SampleView& s) {
    seen.emplace_back(s.data.begin(), s.data.end());
  });
  const std::uint8_t a[] = {1};
  const std::uint8_t b[] = {2, 3, 4};
  const std::uint8_t c[] = {5, 6};
  broker.publish(1, std::span<const std::uint8_t>(a, 1), 0);
  broker.publish(1, std::span<const std::uint8_t>(b, 3), 0);
  broker.publish(1, std::span<const std::uint8_t>(c, 2), 0);
  broker.flush();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(seen[1], (std::vector<std::uint8_t>{2, 3, 4}));
  EXPECT_EQ(seen[2], (std::vector<std::uint8_t>{5, 6}));
}

TEST(PubSub, VectorPayloadPublishesThroughSpan) {
  // The owning-vector overload is gone; a vector payload publishes through
  // the implicit vector -> span conversion and the broker copies the bytes
  // into its arena, so the vector can die before flush().
  PubSubBroker broker;
  std::size_t seen_size = 0;
  broker.subscribe(9, [&](const SampleView& s) { seen_size = s.data.size(); });
  {
    const std::vector<std::uint8_t> payload{7, 8, 9};
    broker.publish(9, payload, 0);
  }
  broker.flush();
  EXPECT_EQ(seen_size, 3u);
}

// ------------------------------------------------------------- services ----

TEST(Services, CallRegisteredService) {
  ServiceRegistry reg;
  reg.provide("echo", nullptr, [](const std::vector<std::uint8_t>& req) {
    return std::optional<std::vector<std::uint8_t>>(req);
  });
  const auto resp = reg.call("echo", {1, 2, 3});
  EXPECT_EQ(resp.status, CallStatus::kOk);
  EXPECT_EQ(resp.payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Services, UnknownServiceReported) {
  ServiceRegistry reg;
  EXPECT_EQ(reg.call("missing", {}).status, CallStatus::kUnknownService);
}

TEST(Services, HandlerErrorReported) {
  ServiceRegistry reg;
  reg.provide("fail", nullptr,
              [](const std::vector<std::uint8_t>&)
                  -> std::optional<std::vector<std::uint8_t>> { return std::nullopt; });
  EXPECT_EQ(reg.call("fail", {}).status, CallStatus::kError);
}

TEST(Services, StoppedPartitionUnavailable) {
  ServiceRegistry reg;
  Partition host("host", 1000);
  reg.provide("svc", &host, [](const std::vector<std::uint8_t>&) {
    return std::optional<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  EXPECT_EQ(reg.call("svc", {}).status, CallStatus::kOk);
  host.deploy(Runnable{"bad", 1000, 10, [] { return RunOutcome::kCrash; }});
  (void)host.execute_window(0, 1000);
  // Isolation: the crashed host makes the service unavailable — the caller
  // gets a clean status instead of a propagated failure.
  EXPECT_EQ(reg.call("svc", {}).status, CallStatus::kUnavailable);
}

TEST(Services, EnumeratesNames) {
  ServiceRegistry reg;
  reg.provide("a", nullptr, [](const auto&) {
    return std::optional<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  reg.provide("b", nullptr, [](const auto&) {
    return std::optional<std::vector<std::uint8_t>>(std::vector<std::uint8_t>{});
  });
  EXPECT_TRUE(reg.has_service("a"));
  EXPECT_FALSE(reg.has_service("z"));
  EXPECT_EQ(reg.service_names().size(), 2u);
}

// ------------------------------------------------------------ middleware ----

TEST(Middleware, DispatchesPartitionsInWindows) {
  Simulator sim;
  Middleware mw(sim, "ecu", 10000);
  const std::size_t p0 = mw.create_partition("ctrl", 4000, 2);
  const std::size_t p1 = mw.create_partition("infotainment", 5000, 0);
  int ctrl_runs = 0, info_runs = 0;
  mw.deploy(p0, ok_runnable("c", 10000, 1000, &ctrl_runs));
  mw.deploy(p1, ok_runnable("i", 20000, 2000, &info_runs));
  mw.start();
  sim.run_until(Time::ms(100));
  EXPECT_EQ(mw.frames_run(), 11u);  // t=0 .. t=100ms inclusive
  EXPECT_GE(ctrl_runs, 10);
  EXPECT_GE(info_runs, 5);
  EXPECT_EQ(mw.slack_us(), 1000);
}

TEST(Middleware, BudgetOverflowRejected) {
  Simulator sim;
  Middleware mw(sim, "ecu", 10000);
  (void)mw.create_partition("a", 8000);
  EXPECT_THROW(mw.create_partition("b", 3000), std::invalid_argument);
}

TEST(Middleware, FaultIsolationBetweenPartitions) {
  Simulator sim;
  Middleware mw(sim, "ecu", 10000);
  const std::size_t bad = mw.create_partition("bad", 3000, 0);
  const std::size_t good = mw.create_partition("good", 3000, 2);
  int good_runs = 0;
  mw.deploy(bad, Runnable{"crash", 10000, 100, [] { return RunOutcome::kCrash; }});
  mw.deploy(good, ok_runnable("g", 10000, 500, &good_runs));
  mw.start();
  sim.run_until(Time::ms(100));
  // The crashed partition is stopped; the healthy one keeps running — the
  // consolidation-enabling isolation property.
  EXPECT_EQ(mw.partition(bad).health(), PartitionHealth::kStopped);
  EXPECT_GE(good_runs, 10);
}

TEST(Middleware, PubSubFlushedAtWindowBoundaries) {
  Simulator sim;
  Middleware mw(sim, "ecu", 10000);
  const std::size_t prod = mw.create_partition("producer", 2000);
  const std::size_t cons = mw.create_partition("consumer", 2000);
  double last_seen = 0.0;
  Topic<double> speed(mw.broker(), 9);
  speed.subscribe([&](const double& v) { last_seen = v; });
  int tick = 0;
  mw.deploy(prod, Runnable{"pub", 10000, 100, [&] {
                             speed.publish(++tick, 0);
                             return RunOutcome::kOk;
                           }});
  (void)cons;
  mw.start();
  sim.run_until(Time::ms(50));
  EXPECT_GE(last_seen, 5.0);  // publications delivered every frame
}

// ---------------------------------------------------------- observability ----

TEST(Middleware, BrokerMetricsMatchHandRolledCounters) {
  ev::obs::MetricsRegistry registry;
  PubSubBroker broker;
  broker.attach_observer(registry, "t");
  Topic<double> topic(broker, 3);
  topic.subscribe([](const double&) {});
  topic.subscribe([](const double&) {});
  for (int k = 0; k < 5; ++k) topic.publish(k, k * 10);
  broker.flush(100);
  // The delivered counter tracks the broker's own ledger exactly.
  EXPECT_EQ(registry.counter_value(registry.counter("t.pubsub.delivered")),
            broker.delivered());
  EXPECT_EQ(broker.delivered(), 10u);  // 5 samples x 2 subscribers
  // Peak backlog saw all five buffered publications.
  EXPECT_DOUBLE_EQ(registry.gauge_value(registry.gauge("t.pubsub.backlog.peak")), 5.0);
  // Timed flush attributed one latency sample per delivery.
  EXPECT_EQ(registry
                .histogram_stats(
                    registry.histogram("t.pubsub.delivery_latency_us", 0.0, 1e6, 64))
                .count(),
            10u);
}

TEST(Middleware, ObserverMetricsMatchHandRolledCounters) {
  Simulator sim;
  ev::obs::MetricsRegistry registry;
  Middleware mw(sim, "ecu0", 10000);
  mw.attach_observer(registry);
  const std::size_t p = mw.create_partition("ctrl", 4000);
  int runs = 0;
  mw.deploy(p, ok_runnable("c", 10000, 1000, &runs));
  mw.start();
  sim.run_until(Time::ms(50));
  EXPECT_EQ(registry.counter_value(registry.counter("mw.ecu0.frames")),
            mw.frames_run());
  EXPECT_DOUBLE_EQ(registry.gauge_value(registry.gauge("mw.ecu0.slack_us")),
                   static_cast<double>(mw.slack_us()));
  // The partition ran in every frame, consuming 1000 of its 4000 us budget.
  EXPECT_DOUBLE_EQ(registry.gauge_value(registry.gauge("mw.ecu0.ctrl.budget_util")),
                   0.25);
  // jobs_completed mirrors the partition's cumulative ledger.
  EXPECT_DOUBLE_EQ(registry.gauge_value(registry.gauge("mw.ecu0.ctrl.jobs_completed")),
                   static_cast<double>(mw.partition(p).jobs_completed()));
  EXPECT_EQ(mw.partition(p).jobs_completed(), static_cast<std::uint64_t>(runs));
}

TEST(Middleware, ObserverRecordsPartitionSpans) {
  Simulator sim;
  ev::obs::MetricsRegistry registry;
  ev::obs::TraceLog trace;
  Middleware mw(sim, "ecu0", 10000);
  mw.attach_observer(registry, &trace);
  const std::size_t p = mw.create_partition("ctrl", 4000);
  mw.deploy(p, ok_runnable("c", 10000, 1000));
  mw.start();
  sim.run_until(Time::ms(20));
  ASSERT_FALSE(trace.spans().empty());
  const ev::obs::Span& s = trace.spans().front();
  EXPECT_EQ(trace.names().name(s.name), "ctrl");
  EXPECT_EQ(trace.names().name(s.category), "partition");
  EXPECT_EQ(s.end_ns - s.begin_ns, 1000 * 1000);  // the 1000 us consumed
}

TEST(Middleware, RuntimeDeploymentWorks) {
  Simulator sim;
  Middleware mw(sim, "ecu", 10000);
  const std::size_t p = mw.create_partition("apps", 5000);
  mw.start();
  sim.run_until(Time::ms(20));
  // "Purchasing a feature" mid-operation: deploy while dispatching.
  int runs = 0;
  mw.deploy(p, ok_runnable("new-feature", 10000, 500, &runs));
  sim.run_until(Time::ms(60));
  EXPECT_GE(runs, 3);
}

}  // namespace

// Unit tests for time-triggered schedule synthesis, modular integration,
// and the event-triggered response-time analyses.
#include <gtest/gtest.h>

#include "ev/scheduling/integration.h"
#include "ev/scheduling/model.h"
#include "ev/scheduling/response_time.h"
#include "ev/scheduling/synthesis.h"
#include "ev/util/rng.h"

namespace {

using namespace ev::scheduling;

// ------------------------------------------------------ conflict check ----

TEST(Conflict, DisjointSlotsDoNotConflict) {
  // Same period, back-to-back slots.
  EXPECT_FALSE(activities_conflict(0, 100, 1000, 100, 100, 1000));
  EXPECT_FALSE(activities_conflict(100, 100, 1000, 0, 100, 1000));
}

TEST(Conflict, OverlapDetected) {
  EXPECT_TRUE(activities_conflict(0, 200, 1000, 100, 100, 1000));
  EXPECT_TRUE(activities_conflict(0, 100, 1000, 0, 100, 1000));
}

TEST(Conflict, HarmonicPeriods) {
  // 1000/2000 periods: activity B at offset 500 fits between A's instances.
  EXPECT_FALSE(activities_conflict(0, 100, 1000, 500, 100, 2000));
  // But at offset 950 it collides with A's next instance (wrap via gcd).
  EXPECT_TRUE(activities_conflict(0, 100, 1000, 950, 100, 2000));
}

TEST(Conflict, CoprimePeriodsAlmostAlwaysCollide) {
  // gcd(999, 1000) = 1: any nonzero durations collide somewhere.
  EXPECT_TRUE(activities_conflict(0, 10, 999, 500, 10, 1000));
}

// ------------------------------------------------------------ topology ----

TEST(TopologicalOrder, RespectsPrecedence) {
  System sys;
  sys.activities = {{0, "a", 0, 1000, 10, {}},
                    {1, "b", 0, 1000, 10, {0}},
                    {2, "c", 0, 1000, 10, {1}}};
  const auto order = topological_order(sys);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_LT(std::find(order.begin(), order.end(), 0) - order.begin(),
            std::find(order.begin(), order.end(), 1) - order.begin());
}

TEST(TopologicalOrder, DetectsCycle) {
  System sys;
  sys.activities = {{0, "a", 0, 1000, 10, {1}}, {1, "b", 0, 1000, 10, {0}}};
  EXPECT_THROW(topological_order(sys), std::invalid_argument);
}

TEST(TopologicalOrder, UnknownPredecessorRejected) {
  System sys;
  sys.activities = {{0, "a", 0, 1000, 10, {42}}};
  EXPECT_THROW(topological_order(sys), std::invalid_argument);
}

// ------------------------------------------------------------ synthesis ----

System chain_system() {
  // sensor (ECU0) -> message (bus 10) -> controller (ECU1), 10 ms period.
  System sys;
  sys.activities = {{0, "sense", 0, 10000, 500, {}},
                    {1, "msg", 10, 10000, 200, {0}},
                    {2, "control", 1, 10000, 800, {1}}};
  sys.chains = {{"loop", {0, 1, 2}, 5000}};
  sys.offset_granularity_us = 100;
  return sys;
}

TEST(Monolithic, SchedulesSimpleChain) {
  const Schedule s = MonolithicSynthesizer().synthesize(chain_system());
  ASSERT_TRUE(s.feasible);
  // Precedence: each stage starts after its predecessor ends.
  EXPECT_GE(s.offset_us[1], s.offset_us[0] + 500);
  EXPECT_GE(s.offset_us[2], s.offset_us[1] + 200);
}

TEST(Monolithic, ChainLatencyShortAndWithinDeadline) {
  const System sys = chain_system();
  const Schedule s = MonolithicSynthesizer().synthesize(sys);
  ASSERT_TRUE(s.feasible);
  const std::int64_t latency = chain_latency_us(sys, s, sys.chains[0]);
  EXPECT_GT(latency, 0);
  EXPECT_LE(latency, sys.chains[0].deadline_us);
}

TEST(Monolithic, NoConflictsInResult) {
  // Several tasks share one ECU; verify pairwise conflict-freedom.
  System sys;
  for (int i = 0; i < 8; ++i)
    sys.activities.push_back({i, "t" + std::to_string(i), 0,
                              (i % 2 == 0) ? 10000 : 20000, 900, {}});
  const Schedule s = MonolithicSynthesizer().synthesize(sys);
  ASSERT_TRUE(s.feasible);
  for (std::size_t i = 0; i < sys.activities.size(); ++i)
    for (std::size_t j = i + 1; j < sys.activities.size(); ++j)
      EXPECT_FALSE(activities_conflict(
          s.offset_us[i], sys.activities[i].duration_us, sys.activities[i].period_us,
          s.offset_us[j], sys.activities[j].duration_us, sys.activities[j].period_us));
}

TEST(Monolithic, DetectsOverload) {
  // Two tasks that together exceed the resource within their period.
  System sys;
  sys.activities = {{0, "a", 0, 1000, 600, {}}, {1, "b", 0, 1000, 600, {}}};
  sys.offset_granularity_us = 10;
  const Schedule s = MonolithicSynthesizer().synthesize(sys);
  EXPECT_FALSE(s.feasible);
}

TEST(Monolithic, EmptySystemTriviallyFeasible) {
  EXPECT_TRUE(MonolithicSynthesizer().synthesize(System{}).feasible);
}

// Property sweep: random systems — every feasible schedule is conflict-free
// and respects precedence.
class SynthesisProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthesisProperty, FeasibleSchedulesAreValid) {
  ev::util::Rng rng(GetParam());
  System sys;
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    Activity a;
    a.id = i;
    a.name = "t" + std::to_string(i);
    a.resource = static_cast<int>(rng.uniform_int(0, 2));
    const std::int64_t periods[] = {5000, 10000, 20000};
    a.period_us = periods[rng.uniform_int(0, 2)];
    a.duration_us = rng.uniform_int(100, 800);
    if (i > 0 && rng.bernoulli(0.4))
      a.predecessors.push_back(static_cast<int>(rng.uniform_int(0, i - 1)));
    sys.activities.push_back(std::move(a));
  }
  sys.offset_granularity_us = 100;
  const Schedule s = MonolithicSynthesizer().synthesize(sys);
  if (!s.feasible) GTEST_SKIP() << "randomly infeasible instance";
  for (std::size_t i = 0; i < sys.activities.size(); ++i) {
    for (int pred : sys.activities[i].predecessors) {
      const auto p = static_cast<std::size_t>(pred);
      EXPECT_GE(s.offset_us[i], s.offset_us[p] + sys.activities[p].duration_us);
    }
    for (std::size_t j = i + 1; j < sys.activities.size(); ++j) {
      if (sys.activities[i].resource != sys.activities[j].resource) continue;
      EXPECT_FALSE(activities_conflict(
          s.offset_us[i], sys.activities[i].duration_us, sys.activities[i].period_us,
          s.offset_us[j], sys.activities[j].duration_us, sys.activities[j].period_us));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------------- integration ----

std::vector<Subsystem> make_subsystems(int count, int tasks_each) {
  // Every subsystem has private ECU tasks plus one message on the shared bus
  // (resource 100).
  std::vector<Subsystem> subs;
  for (int s = 0; s < count; ++s) {
    Subsystem sub;
    sub.name = "sub" + std::to_string(s);
    for (int t = 0; t < tasks_each; ++t) {
      Activity a;
      a.id = t;
      a.name = sub.name + "-t" + std::to_string(t);
      a.resource = s;  // private ECU
      a.period_us = 10000;
      a.duration_us = 700;
      if (t > 0) a.predecessors.push_back(t - 1);
      sub.system.activities.push_back(std::move(a));
    }
    Activity msg;
    msg.id = tasks_each;
    msg.name = sub.name + "-msg";
    msg.resource = 100;  // shared bus
    msg.period_us = 10000;
    msg.duration_us = 400;
    msg.predecessors.push_back(tasks_each - 1);
    sub.system.activities.push_back(std::move(msg));
    sub.system.offset_granularity_us = 100;
    subs.push_back(std::move(sub));
  }
  return subs;
}

TEST(Integration, IntegratesDisjointSubsystems) {
  const auto subs = make_subsystems(4, 3);
  const IntegrationResult r = ScheduleIntegrator().integrate(subs);
  ASSERT_TRUE(r.feasible);
  // Shared-bus messages from different subsystems must not collide.
  for (std::size_t s = 0; s < subs.size(); ++s) {
    for (std::size_t t = s + 1; t < subs.size(); ++t) {
      const std::size_t ms = subs[s].system.activities.size() - 1;
      const std::size_t mt = subs[t].system.activities.size() - 1;
      EXPECT_FALSE(activities_conflict(
          r.global_offset_us(s, ms), subs[s].system.activities[ms].duration_us,
          subs[s].system.activities[ms].period_us, r.global_offset_us(t, mt),
          subs[t].system.activities[mt].duration_us,
          subs[t].system.activities[mt].period_us));
    }
  }
}

TEST(Integration, CheaperThanMonolithic) {
  const auto subs = make_subsystems(6, 4);
  const IntegrationResult modular = ScheduleIntegrator().integrate(subs);
  ASSERT_TRUE(modular.feasible);

  // Equivalent monolithic problem.
  System big;
  int next_id = 0;
  for (const auto& sub : subs) {
    const int base = next_id;
    for (const Activity& a : sub.system.activities) {
      Activity copy = a;
      copy.id = next_id++;
      copy.predecessors.clear();
      for (int p : a.predecessors) copy.predecessors.push_back(base + p);
      big.activities.push_back(std::move(copy));
    }
  }
  big.offset_granularity_us = 100;
  const Schedule mono = MonolithicSynthesizer().synthesize(big);
  ASSERT_TRUE(mono.feasible);
  // The integration search touches far fewer candidates than the global one.
  EXPECT_LT(modular.search_steps, mono.search_steps * 2);
}

TEST(Integration, FailsWhenBusSaturated) {
  // Messages so long that the shared bus cannot host all subsystems.
  auto subs = make_subsystems(8, 1);
  for (auto& sub : subs) sub.system.activities.back().duration_us = 2000;
  const IntegrationResult r =
      ScheduleIntegrator(SynthesisOptions{}, 100).integrate(subs);
  EXPECT_FALSE(r.feasible);
}

// --------------------------------------------------------- response time ----

TEST(ResponseTime, ClassicExample) {
  // Three tasks, rate-monotonic priorities.
  std::vector<FpTask> tasks{{"t1", 1, 10000, 2000, 0},
                            {"t2", 2, 20000, 4000, 0},
                            {"t3", 3, 40000, 8000, 0}};
  const auto r = fp_response_times(tasks);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].response_us, 2000);
  EXPECT_EQ(r[1].response_us, 6000);   // 4000 + one preemption by t1
  EXPECT_EQ(r[2].response_us, 16000);  // fixed point: 8 + 2*2 + 1*4
  for (const auto& x : r) EXPECT_TRUE(x.schedulable);
}

TEST(ResponseTime, OverloadUnschedulable) {
  std::vector<FpTask> tasks{{"t1", 1, 1000, 600, 0}, {"t2", 2, 1000, 600, 0}};
  const auto r = fp_response_times(tasks);
  EXPECT_FALSE(r[1].schedulable);
}

TEST(ResponseTime, JitterIncreasesResponse) {
  std::vector<FpTask> base{{"t1", 1, 10000, 2000, 0}, {"t2", 2, 20000, 4000, 0}};
  std::vector<FpTask> jittered = base;
  jittered[0].jitter_us = 1000;
  const auto r0 = fp_response_times(base);
  const auto r1 = fp_response_times(jittered);
  EXPECT_GE(r1[1].response_us, r0[1].response_us);
}

}  // namespace

// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ev/sim/simulator.h"

namespace {

using ev::sim::Simulator;
using ev::sim::Time;

TEST(Time, FactoryAndConversion) {
  EXPECT_EQ(Time::us(1).count_ns(), 1000);
  EXPECT_EQ(Time::ms(2).count_ns(), 2'000'000);
  EXPECT_EQ(Time::s(1).count_ns(), 1'000'000'000);
  EXPECT_DOUBLE_EQ(Time::seconds(0.5).to_seconds(), 0.5);
  EXPECT_DOUBLE_EQ(Time::ms(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Time::us(250).to_us(), 250.0);
}

TEST(Time, Arithmetic) {
  const Time a = Time::ms(10);
  const Time b = Time::ms(3);
  EXPECT_EQ((a + b).count_ns(), Time::ms(13).count_ns());
  EXPECT_EQ((a - b).count_ns(), Time::ms(7).count_ns());
  EXPECT_EQ((a * 3).count_ns(), Time::ms(30).count_ns());
  EXPECT_EQ(a / b, 3);
  EXPECT_EQ((a % b).count_ns(), Time::ms(1).count_ns());
  EXPECT_LT(b, a);
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(Time::ms(30), [&] { fired.push_back(3); });
  sim.schedule_at(Time::ms(10), [&] { fired.push_back(1); });
  sim.schedule_at(Time::ms(20), [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::ms(30));
}

TEST(Simulator, FifoTieBreakAtEqualTimes) {
  Simulator sim;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(Time::ms(5), [&fired, i] { fired.push_back(i); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time seen;
  sim.schedule_at(Time::ms(10), [&] {
    sim.schedule_in(Time::ms(5), [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, Time::ms(15));
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(Time::ms(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(Time::ms(5), [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_at(Time::ms(10), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, PeriodicRepeatsUntilCancelled) {
  Simulator sim;
  int count = 0;
  ev::sim::EventId id = 0;
  id = sim.schedule_periodic(Time::ms(10), Time::ms(10), [&] {
    if (++count == 5) sim.cancel(id);
  });
  sim.run_until(Time::s(1));
  EXPECT_EQ(count, 5);
}

TEST(Simulator, PeriodicExactTimestamps) {
  Simulator sim;
  std::vector<Time> at;
  const auto id = sim.schedule_periodic(Time::ms(3), Time::ms(7),
                                        [&] { at.push_back(sim.now()); });
  sim.run_until(Time::ms(25));
  sim.cancel(id);
  ASSERT_EQ(at.size(), 4u);  // 3, 10, 17, 24 ms
  EXPECT_EQ(at[0], Time::ms(3));
  EXPECT_EQ(at[3], Time::ms(24));
}

TEST(Simulator, PeriodicAfterOverloadIsDelayRelative) {
  Simulator sim;
  sim.schedule_at(Time::ms(4), [] {});
  sim.run_until(Time::ms(4));  // now = 4 ms
  std::vector<Time> at;
  const auto id = sim.schedule_periodic(ev::sim::After{Time::ms(3)}, Time::ms(10),
                                        [&] { at.push_back(sim.now()); });
  sim.run_until(Time::ms(30));
  sim.cancel(id);
  ASSERT_EQ(at.size(), 3u);  // 7, 17, 27 ms — first firing now + delay
  EXPECT_EQ(at[0], Time::ms(7));
  EXPECT_EQ(at[2], Time::ms(27));
}

// The kernel keeps its own lifecycle counts: a schedule per schedule_* call
// (a periodic's re-arms are not schedules), a dispatch per firing, a cancel
// only when a live event was removed, and the peak of pending events.
TEST(Simulator, CountsItsOwnLifecycle) {
  Simulator sim;
  const auto first = sim.schedule_at(Time::ms(1), [] {});
  sim.schedule_at(Time::ms(2), [&] { sim.schedule_in(Time::ms(1), [] {}); });
  const auto doomed = sim.schedule_at(Time::ms(3), [] {});
  EXPECT_EQ(sim.peak_pending(), 3u);
  EXPECT_TRUE(sim.cancel(doomed));
  EXPECT_FALSE(sim.cancel(doomed));  // stale: already cancelled
  int fired = 0;
  ev::sim::EventId self = ev::sim::kNoEvent;
  self = sim.schedule_periodic(Time::ms(4), Time::ms(1), [&] {
    if (++fired == 3) {
      EXPECT_TRUE(sim.cancel(self));  // self-cancel counts
    }
  });
  sim.run_until(Time::ms(10));
  EXPECT_FALSE(sim.cancel(first));  // stale: already fired
  EXPECT_FALSE(sim.cancel(ev::sim::kNoEvent));

  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.scheduled(), 5u);   // 3 one-shots, the nested one, the periodic
  EXPECT_EQ(sim.dispatched(), 6u);  // 3 one-shots + 3 periodic firings
  EXPECT_EQ(sim.cancelled(), 2u);   // doomed and the periodic's own cancel
  EXPECT_EQ(sim.peak_pending(), 3u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunUntilAdvancesClockToBoundary) {
  Simulator sim;
  sim.schedule_at(Time::ms(5), [] {});
  const std::size_t n = sim.run_until(Time::ms(100));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(sim.now(), Time::ms(100));
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  bool late_fired = false;
  sim.schedule_at(Time::ms(200), [&] { late_fired = true; });
  sim.run_until(Time::ms(100));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(late_fired);
}

TEST(Simulator, HandlerMaySchedule) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_in(Time::us(1), chain);
  };
  sim.schedule_at(Time{}, chain);
  sim.run();
  EXPECT_EQ(depth, 10);
}

TEST(Simulator, PeriodicHandlerCancelSelfInsideHandler) {
  Simulator sim;
  int count = 0;
  ev::sim::EventId id = sim.schedule_periodic(Time::ms(1), Time::ms(1), [&] { ++count; });
  sim.schedule_at(Time::ms(3) + Time::us(1), [&] { sim.cancel(id); });
  sim.run_until(Time::ms(100));
  EXPECT_EQ(count, 3);
}

// --- arena event queue -------------------------------------------------------

TEST(ArenaQueue, CancelDuringFireSuppressesSameTimestampVictims) {
  Simulator sim;
  std::vector<int> fired;
  ev::sim::EventId victim1 = ev::sim::kNoEvent;
  ev::sim::EventId victim2 = ev::sim::kNoEvent;
  sim.schedule_at(Time::ms(1), [&] {
    fired.push_back(0);
    EXPECT_TRUE(sim.cancel(victim1));
    EXPECT_TRUE(sim.cancel(victim2));
  });
  victim1 = sim.schedule_at(Time::ms(1), [&] { fired.push_back(1); });
  sim.schedule_at(Time::ms(1), [&] { fired.push_back(2); });
  victim2 = sim.schedule_at(Time::ms(1), [&] { fired.push_back(3); });
  sim.run_until(Time::ms(2));
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
}

TEST(ArenaQueue, StaleIdAfterSlotReuseDoesNotCancelNewTenant) {
  Simulator sim;
  int fired = 0;
  const ev::sim::EventId id1 = sim.schedule_at(Time::ms(1), [&] { ++fired; });
  ASSERT_TRUE(sim.cancel(id1));  // releases the slot to the free list
  const ev::sim::EventId id2 = sim.schedule_at(Time::ms(1), [&] { fired += 10; });
  EXPECT_NE(id1, id2);
  EXPECT_FALSE(sim.cancel(id1));  // stale generation must miss the new tenant
  sim.run_until(Time::ms(2));
  EXPECT_EQ(fired, 10);
}

TEST(ArenaQueue, RescheduleStormRecyclesSlots) {
  Simulator sim;
  // 64 chains, each handler releasing its slot and re-acquiring a fresh one
  // per hop. The arena must recycle indices without unbounded growth and the
  // handlers (this + scalars) must stay inside EventFn's inline buffer.
  struct Chain {
    Simulator* sim;
    int hops_left;
    std::uint64_t* fired;
    void arm() {
      if (hops_left-- == 0) return;
      sim->schedule_in(Time::us(7), [this] {
        ++*fired;
        arm();
      });
    }
  };
  std::uint64_t fired = 0;
  std::vector<std::unique_ptr<Chain>> chains;
  const std::uint64_t before = ev::sim::EventFn::heap_constructions();
  for (int i = 0; i < 64; ++i) {
    chains.push_back(std::make_unique<Chain>(Chain{&sim, 1000, &fired}));
    chains.back()->arm();
  }
  sim.run();
  EXPECT_EQ(fired, 64u * 1000u);
  EXPECT_EQ(ev::sim::EventFn::heap_constructions(), before);
}

TEST(ArenaQueue, MillionEventChurnStaysAllocationFree) {
  Simulator sim;
  constexpr int kBatch = 512;
  constexpr int kRounds = 2000;  // 512 * 2000 > 1M one-shot events
  std::uint64_t fired = 0;
  // Warm-up: push the slab, free list, and heap to their peak footprint.
  for (int i = 0; i < kBatch; ++i)
    sim.schedule_in(Time::us(1 + i), [&fired] { ++fired; });
  sim.run();
  const std::uint64_t baseline = ev::sim::EventFn::heap_constructions();
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kBatch; ++i)
      sim.schedule_in(Time::us(1 + i), [&fired] { ++fired; });
    sim.run();
  }
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kBatch) * (kRounds + 1));
  // Steady-state churn must not construct a single handler on the heap.
  EXPECT_EQ(ev::sim::EventFn::heap_constructions(), baseline);
}

// --- RAII event ownership ----------------------------------------------------

TEST(ScheduledHandle, CancelsOnDestruction) {
  Simulator sim;
  int fired = 0;
  {
    ev::sim::ScheduledHandle handle{sim,
                                    sim.schedule_at(Time::ms(1), [&] { ++fired; })};
    EXPECT_TRUE(handle.active());
  }
  sim.run_until(Time::ms(2));
  EXPECT_EQ(fired, 0);
}

TEST(ScheduledHandle, MoveTransfersOwnership) {
  Simulator sim;
  int fired = 0;
  ev::sim::ScheduledHandle a{sim, sim.schedule_at(Time::ms(1), [&] { ++fired; })};
  ev::sim::ScheduledHandle b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(b.active());
  EXPECT_TRUE(b.cancel());
  EXPECT_FALSE(b.cancel());  // idempotent
  sim.run_until(Time::ms(2));
  EXPECT_EQ(fired, 0);
}

TEST(ScheduledHandle, AssignCancelsPreviousEvent) {
  Simulator sim;
  int first = 0;
  int second = 0;
  ev::sim::ScheduledHandle handle{sim,
                                  sim.schedule_at(Time::ms(1), [&] { ++first; })};
  handle = ev::sim::ScheduledHandle{sim,
                                    sim.schedule_at(Time::ms(1), [&] { ++second; })};
  sim.run_until(Time::ms(2));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

}  // namespace

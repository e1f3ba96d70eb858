/// \file simulator.h
/// Discrete-event simulation kernel. All networked and scheduled behaviour in
/// evsys (buses, ECUs, middleware dispatch, charging protocol) executes as
/// events on this kernel; continuous plant models (battery, motor, vehicle)
/// are advanced by fixed-step events layered on top.
///
/// Storage design (hot-path): scheduled records live in a slab of reusable
/// slots threaded on a free list, and the time ordering is a flat binary heap
/// of {time, seq, slot, generation} index nodes. Cancelling bumps the slot's
/// generation, so stale heap nodes are recognised and discarded lazily at pop
/// time — cancel is O(1) and dispatch never touches a node-based container.
/// Handlers are EventFn (64-byte small-buffer callables), so after the slab
/// and heap warm up to the scenario's peak, scheduling an event performs no
/// heap allocation at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ev/sim/callable.h"
#include "ev/sim/time.h"

namespace ev::sim {

/// Identifies a scheduled event so it can be cancelled. Valid ids are
/// non-zero; kNoEvent never names a live event. Ids are fresh per schedule:
/// a slot's generation counter is folded into the id, so an id stays dead
/// even after its slot is reused.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

/// Selects the delay-relative schedule_periodic() overload: the first firing
/// happens \p delay after the current time. Prefer this over computing
/// `now() + delay` at the call site — an absolute first-activation time
/// written as a plain duration silently becomes a phase error once the
/// caller no longer runs at t=0.
struct After {
  Time delay;
};

/// Single-threaded discrete-event simulator with deterministic FIFO tie
/// breaking: events at equal timestamps fire in scheduling order.
///
/// Scheduling API contract (uniform across all schedule_* functions):
///  - every function returns a fresh non-zero EventId usable with cancel();
///  - activation times must not lie in the past (throws std::invalid_argument);
///  - one-shot events release their handler after dispatch, periodic events
///    repeat until cancel() (which removes all future repetitions);
///  - handlers may schedule and cancel freely, including their own id.
class Simulator {
 public:
  using Handler = EventFn;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Starts at zero.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules \p handler to fire once at absolute time \p at (>= now()).
  EventId schedule_at(Time at, Handler handler);

  /// Schedules \p handler to fire once \p delay after the current time.
  EventId schedule_in(Time delay, Handler handler);

  /// Schedules \p handler every \p period starting at absolute time \p first.
  EventId schedule_periodic(Time first, Time period, Handler handler);

  /// Schedules \p handler every \p period, first firing start.delay after the
  /// current time (delay-relative twin of the absolute-time overload).
  EventId schedule_periodic(After start, Time period, Handler handler);

  /// Cancels a pending (or periodic) event. Returns true if the id was alive.
  bool cancel(EventId id);

  /// Runs events with timestamp <= \p until; afterwards now() == \p until
  /// unless the queue drained earlier. Returns events dispatched.
  std::size_t run_until(Time until);

  /// Runs until the event queue is fully drained. Returns events dispatched.
  std::size_t run();

  /// Number of live events currently pending.
  [[nodiscard]] std::size_t pending() const noexcept { return live_count_; }

  // Lifecycle totals since construction. Observers read them once a run is
  // over (ev::obs::KernelCounters); no per-event hook exists.

  /// Events dispatched (each firing of a periodic counts once).
  [[nodiscard]] std::uint64_t dispatched() const noexcept { return dispatched_; }
  /// schedule_* calls; a periodic's re-arms are not new schedules.
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return scheduled_; }
  /// cancel() calls that removed a live event.
  [[nodiscard]] std::uint64_t cancelled() const noexcept { return cancelled_; }
  /// Most live events pending at once, sampled after each schedule_* call.
  [[nodiscard]] std::size_t peak_pending() const noexcept { return peak_pending_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffff'ffffu;
  static constexpr std::size_t kChunkShift = 6;  // 64 slots per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  /// Arena record for one live (or recyclable) event.
  struct Slot {
    Handler handler;
    Time period{};
    std::uint32_t generation = 1;  // bumped on release; stale heap-node filter
    std::uint32_t next_free = kNoSlot;
    bool periodic = false;
    bool live = false;
  };

  /// Heap node: index + generation handle into the slot arena.
  struct HeapNode {
    Time at;
    std::uint64_t seq;  // FIFO tie break for equal timestamps
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static constexpr EventId encode_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | (slot + 1u);
  }

  static constexpr bool earlier(const HeapNode& a, const HeapNode& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  /// Slots live in fixed 64-entry chunks that never move once allocated, so
  /// a handler executing in place stays valid while nested scheduling grows
  /// the arena.
  [[nodiscard]] Slot& slot_at(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  EventId enqueue(Time at, Handler handler, bool periodic, Time period);
  std::uint32_t acquire_slot();
  bool dispatch_next(Time limit);
  void heap_push(const HeapNode& node);
  void heap_pop() noexcept;
  /// Overwrites the minimum with \p node and restores heap order with a
  /// single sift-down. This is the periodic re-arm fast path: when the next
  /// activation is still the global minimum (a fast periodic dominating the
  /// queue, e.g. a 44.1 kHz bus frame), it settles in two comparisons.
  void heap_replace_top(const HeapNode& node) noexcept { sift_down(0, node); }
  void sift_down(std::size_t index, const HeapNode& node) noexcept;

  Time now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_count_ = 0;
  std::size_t peak_pending_ = 0;
  std::size_t slot_count_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t executing_ = kNoSlot;  // slot whose handler is running in place
  std::vector<HeapNode> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
};

/// Move-only RAII owner of a scheduled event: destruction (or assignment
/// over) cancels the event if it is still live. A handle must not outlive
/// the Simulator it points into.
class ScheduledHandle {
 public:
  ScheduledHandle() noexcept = default;
  /// Adopts \p id as scheduled on \p sim. Pass the schedule_* result
  /// directly: `ScheduledHandle h{sim, sim.schedule_periodic(...)};`.
  ScheduledHandle(Simulator& sim, EventId id) noexcept : sim_(&sim), id_(id) {}

  ScheduledHandle(ScheduledHandle&& other) noexcept
      : sim_(other.sim_), id_(other.id_) {
    other.sim_ = nullptr;
    other.id_ = kNoEvent;
  }
  ScheduledHandle& operator=(ScheduledHandle&& other) noexcept {
    if (this != &other) {
      cancel();
      sim_ = other.sim_;
      id_ = other.id_;
      other.sim_ = nullptr;
      other.id_ = kNoEvent;
    }
    return *this;
  }
  ScheduledHandle(const ScheduledHandle&) = delete;
  ScheduledHandle& operator=(const ScheduledHandle&) = delete;

  ~ScheduledHandle() { cancel(); }

  /// Cancels the owned event now (idempotent). Returns true if it was live.
  bool cancel() noexcept {
    if (sim_ == nullptr || id_ == kNoEvent) return false;
    const bool was_live = sim_->cancel(id_);
    sim_ = nullptr;
    id_ = kNoEvent;
    return was_live;
  }

  /// The owned id, or kNoEvent after cancel() or move-from.
  [[nodiscard]] EventId id() const noexcept { return id_; }

  /// True while this handle still owns a scheduled event. (The event may
  /// already have fired — one-shot dispatch does not notify handles; a
  /// subsequent cancel() is then a harmless no-op.)
  [[nodiscard]] bool active() const noexcept {
    return sim_ != nullptr && id_ != kNoEvent;
  }
  [[nodiscard]] explicit operator bool() const noexcept { return active(); }

 private:
  Simulator* sim_ = nullptr;
  EventId id_ = kNoEvent;
};

}  // namespace ev::sim

#include "ev/sim/simulator.h"

#include <limits>
#include <stdexcept>
#include <utility>

namespace ev::sim {

namespace {
constexpr Time kTimeMax = Time::ns(std::numeric_limits<std::int64_t>::max());
}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slot_at(index).next_free;
    return index;
  }
  if (slot_count_ == chunks_.size() * kChunkSize)
    chunks_.emplace_back(std::make_unique<Slot[]>(kChunkSize));
  return static_cast<std::uint32_t>(slot_count_++);
}

// Sift helpers move a "hole" instead of swapping whole nodes: each level
// costs one comparison and one 24-byte move, and the carried node is written
// exactly once at its final position.
void Simulator::heap_push(const HeapNode& node) {
  std::size_t i = heap_.size();
  heap_.push_back(node);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

__attribute__((always_inline)) inline void Simulator::sift_down(std::size_t index,
                                                                const HeapNode& node) noexcept {
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * index + 1;
    if (child >= n) break;
    const std::size_t right = child + 1;
    if (right < n && earlier(heap_[right], heap_[child])) child = right;
    if (!earlier(heap_[child], node)) break;
    heap_[index] = heap_[child];
    index = child;
  }
  heap_[index] = node;
}

void Simulator::heap_pop() noexcept {
  const HeapNode last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

EventId Simulator::enqueue(Time at, Handler handler, bool periodic, Time period) {
  if (at < now_) throw std::invalid_argument("Simulator: cannot schedule in the past");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slot_at(index);
  slot.handler = std::move(handler);
  slot.period = period;
  slot.periodic = periodic;
  slot.live = true;
  ++scheduled_;
  if (++live_count_ > peak_pending_) peak_pending_ = live_count_;
  heap_push(HeapNode{at, next_seq_++, index, slot.generation});
  return encode_id(index, slot.generation);
}

EventId Simulator::schedule_at(Time at, Handler handler) {
  return enqueue(at, std::move(handler), /*periodic=*/false, Time{});
}

EventId Simulator::schedule_in(Time delay, Handler handler) {
  return enqueue(now_ + delay, std::move(handler), /*periodic=*/false, Time{});
}

EventId Simulator::schedule_periodic(Time first, Time period, Handler handler) {
  if (period <= Time{}) throw std::invalid_argument("Simulator: period must be positive");
  return enqueue(first, std::move(handler), /*periodic=*/true, period);
}

EventId Simulator::schedule_periodic(After start, Time period, Handler handler) {
  return schedule_periodic(now_ + start.delay, period, std::move(handler));
}

bool Simulator::cancel(EventId id) {
  const std::uint64_t low = id & 0xffff'ffffu;
  if (low == 0) return false;
  const std::uint32_t index = static_cast<std::uint32_t>(low - 1u);
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= slot_count_) return false;
  Slot& slot = slot_at(index);
  if (!slot.live || slot.generation != generation) return false;
  slot.live = false;
  ++slot.generation;  // invalidates the id and any heap nodes still queued
  --live_count_;
  ++cancelled_;
  if (index != executing_) {
    // Storage release is deferred for the executing slot: destroying the
    // closure that is cancelling itself mid-call would free live stack state.
    // dispatch_next() finishes the release after the handler returns.
    slot.handler.reset();
    slot.next_free = free_head_;
    free_head_ = index;
  }
  return true;
}

/// Dispatches the earliest live event whose activation is <= \p limit.
/// Returns false when the heap is drained or only later events remain.
bool Simulator::dispatch_next(Time limit) {
  while (!heap_.empty()) {
    const HeapNode top = heap_.front();
    Slot& slot = slot_at(top.slot);
    if (!slot.live || slot.generation != top.generation) {
      heap_pop();  // cancelled event; discard lazily
      continue;
    }
    if (top.at > limit) return false;
    now_ = top.at;
    ++dispatched_;
    if (slot.periodic) {
      // Re-arm before dispatch so the handler may cancel its own repetition.
      const Time next = top.at + slot.period;
      heap_replace_top(HeapNode{next, next_seq_++, top.slot, top.generation});
    } else {
      heap_pop();
      // Logical release before the call: the handler sees itself as dead
      // (pending() excludes it, cancelling its own id is a no-op) and the id
      // turns stale, but the closure's storage is reclaimed only after the
      // call below.
      slot.live = false;
      ++slot.generation;
      --live_count_;
    }
    // Invoke in place — no per-dispatch copy of the callable. Safe because
    // slot chunks never move when nested scheduling grows the arena, and
    // cancel() defers the executing slot's storage release.
    executing_ = top.slot;
    slot.handler();
    executing_ = kNoSlot;
    if (!slot.live) {  // one-shot fired, or a periodic cancelled itself
      slot.handler.reset();
      slot.next_free = free_head_;
      free_head_ = top.slot;
    }
    return true;
  }
  return false;
}

std::size_t Simulator::run_until(Time until) {
  std::size_t dispatched = 0;
  while (dispatch_next(until)) ++dispatched;
  if (now_ < until) now_ = until;
  return dispatched;
}

std::size_t Simulator::run() {
  std::size_t dispatched = 0;
  while (dispatch_next(kTimeMax)) ++dispatched;
  return dispatched;
}

}  // namespace ev::sim

/// \file frame.h
/// Frame and node abstractions shared by all in-vehicle bus models (CAN,
/// LIN, FlexRay, MOST, Ethernet) of the paper's Fig. 1, and the one
/// priority-arbitration queue the CAN and FlexRay MACs share.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ev/sim/time.h"

namespace ev::network {

/// Identifies an attached controller (ECU communication endpoint).
using NodeId = std::uint32_t;

/// A frame in flight. `id` doubles as the arbitration priority on CAN
/// (lower wins) and as the stream/slot identifier on scheduled buses.
struct Frame {
  std::uint32_t id = 0;          ///< Message identifier / priority.
  NodeId source = 0;             ///< Sending node.
  std::size_t payload_size = 8;  ///< Payload bytes (protocol limits apply).
  std::vector<std::uint8_t> payload;  ///< Optional payload content.
  sim::Time created;             ///< When the sender queued the frame.
  std::uint64_t sequence = 0;    ///< Monotonic per-bus sequence (set by Bus::send).
};

/// Frames contending for a priority-arbitrated medium (CAN arbitration, the
/// FlexRay dynamic segment). top() is the frame that wins: lowest id, FIFO
/// (lowest sequence) among equal ids. A binary heap: push and pop cost
/// O(log n), so the backlog of a bus past 100% load does not make each
/// frame cost O(n).
class ArbitrationQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  /// The arbitration winner. Precondition: !empty().
  [[nodiscard]] const Frame& top() const noexcept { return heap_.front(); }

  /// Adds \p frame. A frame that re-enters (a CAN retransmission) keeps its
  /// sequence, and with it its FIFO place among equal ids.
  void push(Frame frame) {
    heap_.push_back(std::move(frame));
    std::push_heap(heap_.begin(), heap_.end(), loses);
  }
  /// Removes and returns top(). Precondition: !empty().
  Frame pop() {
    std::pop_heap(heap_.begin(), heap_.end(), loses);
    Frame winner = std::move(heap_.back());
    heap_.pop_back();
    return winner;
  }

 private:
  /// Heap order: true when \p a loses arbitration against \p b.
  static bool loses(const Frame& a, const Frame& b) noexcept {
    if (a.id != b.id) return a.id > b.id;
    return a.sequence > b.sequence;
  }

  std::vector<Frame> heap_;
};

/// Delivery callback: invoked at the simulation time the frame's last bit
/// arrives at the receivers.
using DeliveryHandler = std::function<void(const Frame&, sim::Time delivered)>;

}  // namespace ev::network

/// \file flexray.h
/// FlexRay bus model ([12]): the hybrid protocol the paper highlights as the
/// deterministic backbone candidate — a TDMA *static segment* giving
/// time-triggered frames fixed slots each cycle, plus a minislot-arbitrated
/// *dynamic segment* for event-triggered traffic, at 10 Mbit/s.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ev/network/bus.h"

namespace ev::network {

/// Static-segment slot assignment.
struct FlexRaySlot {
  std::uint32_t frame_id = 0;   ///< Message carried in this slot.
  NodeId publisher = 0;         ///< Owning node.
  std::size_t payload_bytes = 16;  ///< Fixed static payload (all slots equal size).
};

/// Cycle-level configuration.
struct FlexRayConfig {
  std::vector<FlexRaySlot> static_slots;  ///< One entry per static slot, in order.
  std::size_t static_payload_bytes = 16;  ///< Uniform static slot payload size.
  std::size_t minislot_count = 40;        ///< Dynamic segment length in minislots.
  double minislot_s = 5e-6;               ///< Minislot duration.
  double nit_s = 50e-6;                   ///< Network idle time at cycle end.
};

/// FlexRay bus. Frames whose id has a static slot are state-buffered and
/// sent in their slot every cycle; all other ids contend for the dynamic
/// segment through an ArbitrationQueue (ascending id, FIFO among equal ids).
/// Each cycle serves its top() while the frame fits the minislots left, so a
/// frame that does not fit, and everything behind it, carries over to the
/// next cycle.
class FlexRayBus : public Bus {
 public:
  FlexRayBus(sim::Simulator& sim, std::string name, FlexRayConfig config,
             double bit_rate_bps = 10e6);

  /// Starts cycle execution at \p start.
  void start(sim::Time start = {});

  /// Communication-cycle length [s].
  [[nodiscard]] double cycle_time_s() const noexcept { return cycle_s_; }
  /// Static-segment length [s].
  [[nodiscard]] double static_segment_s() const noexcept { return static_segment_s_; }
  /// Configured slots.
  [[nodiscard]] const FlexRayConfig& config() const noexcept { return config_; }

  /// Encoded frame size: header (5 bytes) + payload + trailer (3 bytes),
  /// byte-start sequences (10 bits/byte) plus start/end sequences.
  [[nodiscard]] static std::size_t frame_bits(std::size_t payload_bytes) noexcept;

 protected:
  /// Static ids: buffers the latest value (state semantics). Dynamic ids:
  /// queues the frame (event semantics). Fails if a dynamic payload exceeds
  /// what the whole dynamic segment can carry.
  bool do_send(Frame frame) override;

 private:
  void run_cycle();

  FlexRayConfig config_;
  double slot_s_;            ///< Static slot duration.
  double static_segment_s_;  ///< All static slots.
  double cycle_s_;           ///< Full cycle.
  std::map<std::uint32_t, std::size_t> static_index_;  ///< id -> slot position.
  std::vector<std::optional<Frame>> static_buffer_;
  ArbitrationQueue dynamic_queue_;
  bool started_ = false;
};

}  // namespace ev::network

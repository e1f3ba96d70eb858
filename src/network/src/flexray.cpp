#include "ev/network/flexray.h"

#include <cmath>
#include <stdexcept>

namespace ev::network {

std::size_t FlexRayBus::frame_bits(std::size_t payload_bytes) noexcept {
  // 8 bytes header+trailer with the payload, each byte preceded by a 2-bit
  // byte-start sequence, plus transmission start/end sequences (~14 bits).
  return (5 + payload_bytes + 3) * 10 + 14;
}

FlexRayBus::FlexRayBus(sim::Simulator& sim, std::string name, FlexRayConfig config,
                       double bit_rate_bps)
    : Bus(sim, std::move(name), bit_rate_bps), config_(std::move(config)) {
  slot_s_ = static_cast<double>(frame_bits(config_.static_payload_bytes)) / bit_rate() +
            2e-6;  // action-point offset margin
  static_segment_s_ = slot_s_ * static_cast<double>(config_.static_slots.size());
  cycle_s_ = static_segment_s_ +
             static_cast<double>(config_.minislot_count) * config_.minislot_s + config_.nit_s;
  static_buffer_.resize(config_.static_slots.size());
  for (std::size_t i = 0; i < config_.static_slots.size(); ++i) {
    const auto [it, inserted] = static_index_.emplace(config_.static_slots[i].frame_id, i);
    if (!inserted)
      throw std::invalid_argument("FlexRayBus: duplicate frame id in static schedule");
  }
}

bool FlexRayBus::do_send(Frame frame) {
  const auto it = static_index_.find(frame.id);
  if (it != static_index_.end()) {
    frame.payload_size = config_.static_slots[it->second].payload_bytes;
    static_buffer_[it->second] = std::move(frame);
    return true;
  }
  // Dynamic segment: the frame must fit in the minislot budget of one cycle.
  const double tx_s = static_cast<double>(frame_bits(frame.payload_size)) / bit_rate();
  const double dyn_s = static_cast<double>(config_.minislot_count) * config_.minislot_s;
  if (tx_s > dyn_s) return false;
  dynamic_queue_.push(std::move(frame));
  return true;
}

void FlexRayBus::start(sim::Time start) {
  if (started_) return;
  started_ = true;
  simulator().schedule_periodic(start, sim::Time::seconds(cycle_s_), [this] { run_cycle(); });
}

void FlexRayBus::run_cycle() {
  // --- Static segment: each slot fires at its fixed offset -----------------
  for (std::size_t i = 0; i < static_buffer_.size(); ++i) {
    if (!static_buffer_[i]) continue;
    Frame frame = std::move(*static_buffer_[i]);
    static_buffer_[i].reset();
    const double offset_s = slot_s_ * static_cast<double>(i);
    const double tx_s =
        static_cast<double>(frame_bits(config_.static_payload_bytes)) / bit_rate();
    account_busy(sim::Time::seconds(tx_s));
    simulator().schedule_in(sim::Time::seconds(offset_s + tx_s),
                            [this, frame = std::move(frame)] { deliver(frame); });
  }

  // --- Dynamic segment: arbitration order, minislot-counted -----------------
  double used_s = 0.0;
  const double dyn_budget_s =
      static_cast<double>(config_.minislot_count) * config_.minislot_s;
  while (!dynamic_queue_.empty()) {
    const double tx_s =
        static_cast<double>(frame_bits(dynamic_queue_.top().payload_size)) / bit_rate();
    // A dynamic frame occupies a whole number of minislots.
    const double occupied_s =
        std::ceil(tx_s / config_.minislot_s) * config_.minislot_s;
    if (used_s + occupied_s > dyn_budget_s) break;  // id too large for what remains
    const double offset_s = static_segment_s_ + used_s;
    account_busy(sim::Time::seconds(tx_s));
    simulator().schedule_in(sim::Time::seconds(offset_s + tx_s),
                            [this, frame = dynamic_queue_.pop()] { deliver(frame); });
    used_s += occupied_s;
  }
}

}  // namespace ev::network

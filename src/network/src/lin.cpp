#include "ev/network/lin.h"

#include <stdexcept>

namespace ev::network {

LinBus::LinBus(sim::Simulator& sim, std::string name, std::vector<LinSlot> schedule,
               double slot_time_s, double bit_rate_bps)
    : Bus(sim, std::move(name), bit_rate_bps),
      schedule_(std::move(schedule)),
      slot_time_s_(slot_time_s) {
  if (schedule_.empty()) throw std::invalid_argument("LinBus: schedule table is empty");
  for (const auto& slot : schedule_) {
    if (slot.payload_bytes == 0 || slot.payload_bytes > 8)
      throw std::invalid_argument("LinBus: payload must be 1..8 bytes");
    const double frame_time = static_cast<double>(frame_bits(slot.payload_bytes)) / bit_rate();
    if (frame_time > slot_time_s)
      throw std::invalid_argument("LinBus: slot time shorter than frame time");
  }
  buffered_.resize(schedule_.size());
}

std::size_t LinBus::frame_bits(std::size_t payload_bytes) noexcept {
  // Header: break (14) + sync (10) + protected id (10). Response: n data
  // bytes + checksum, each as a UART byte (10 bits).
  return 34 + (payload_bytes + 1) * 10;
}

bool LinBus::do_send(Frame frame) {
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    if (schedule_[i].frame_id == frame.id) {
      frame.payload_size = schedule_[i].payload_bytes;
      buffered_[i] = std::move(frame);
      return true;
    }
  }
  return false;  // no slot configured for this id
}

void LinBus::start(sim::Time start) {
  if (started_) return;
  started_ = true;
  simulator().schedule_periodic(start, sim::Time::seconds(slot_time_s_), [this] {
    run_slot(next_slot_);
    next_slot_ = (next_slot_ + 1) % schedule_.size();
  });
}

void LinBus::run_slot(std::size_t index) {
  const LinSlot& slot = schedule_[index];
  if (!buffered_[index]) return;  // header answered by nobody: bus idles
  Frame frame = std::move(*buffered_[index]);
  buffered_[index].reset();
  const sim::Time tx = tx_time(frame_bits(slot.payload_bytes));
  account_busy(tx);
  simulator().schedule_in(tx, [this, frame = std::move(frame)] { deliver(frame); });
}

}  // namespace ev::network

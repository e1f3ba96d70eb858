#include "ev/network/most.h"

#include <stdexcept>

namespace ev::network {

MostBus::MostBus(sim::Simulator& sim, std::string name, std::vector<MostStream> streams,
                 double bit_rate_bps, double frame_rate_hz)
    : Bus(sim, std::move(name), bit_rate_bps),
      frame_rate_hz_(frame_rate_hz),
      frame_period_(sim::Time::seconds(1.0 / frame_rate_hz)) {
  frame_bytes_ = static_cast<std::size_t>(bit_rate_bps / frame_rate_hz / 8.0);
  for (const auto& s : streams) {
    if (!streams_.emplace(s.stream_id, s).second)
      throw std::invalid_argument("MostBus: duplicate stream id");
    sync_bytes_ += s.bytes_per_frame;
  }
  if (sync_bytes_ > frame_bytes_)
    throw std::invalid_argument("MostBus: synchronous reservation exceeds frame size");
}

std::size_t MostBus::async_bytes_per_frame() const noexcept {
  // Control channel and management overhead take a fixed share (~6 bytes of
  // a 64-byte MOST25 frame).
  const std::size_t overhead = frame_bytes_ / 10;
  return frame_bytes_ - sync_bytes_ - overhead;
}

bool MostBus::do_send(Frame frame) {
  const auto it = streams_.find(frame.id);
  if (it != streams_.end()) {
    // Isochronous: the sample block is carried in the reserved bytes of the
    // next frame and arrives one frame period later.
    account_busy(tx_time(it->second.bytes_per_frame * 8));
    simulator().schedule_in(frame_period_,
                            [this, frame = std::move(frame)] { deliver(frame); });
    return true;
  }
  async_queue_.push_back(std::move(frame));
  if (started_ && !frame_clock_) wake();
  return true;
}

void MostBus::start(sim::Time start) {
  if (started_) return;
  started_ = true;
  grid_origin_ = start;
  arm(start);
}

void MostBus::arm(sim::Time first) {
  frame_clock_ = sim::ScheduledHandle{
      simulator(), simulator().schedule_periodic(first, frame_period_, [this] { run_frame(); })};
}

void MostBus::wake() {
  // Earliest grid boundary at or after now, but strictly after the frame that
  // went idle: a send at that frame's instant waits for the next boundary,
  // exactly as it would behind an eager clock.
  const sim::Time since = simulator().now() - grid_origin_;
  sim::Time next = grid_origin_ + frame_period_ * ((since + frame_period_ - sim::Time::ns(1)) /
                                                   frame_period_);
  if (next <= last_frame_) next = last_frame_ + frame_period_;
  arm(next);
}

void MostBus::run_frame() {
  last_frame_ = simulator().now();
  if (async_queue_.empty()) {
    // Dormant from the first idle frame on (not from the frame that drained
    // the queue), so the last busy frame's deliveries keep their order
    // behind this tick. The next async send re-arms the clock.
    frame_clock_.cancel();
    return;
  }
  std::size_t budget = async_bytes_per_frame();
  while (!async_queue_.empty() && budget > 0) {
    Frame& head = async_queue_.front();
    const std::size_t remaining = head.payload_size - async_progress_bytes_;
    if (remaining > budget) {
      async_progress_bytes_ += budget;
      account_busy(tx_time(budget * 8));
      budget = 0;
      break;
    }
    budget -= remaining;
    account_busy(tx_time(remaining * 8));
    Frame done = std::move(head);
    async_queue_.pop_front();
    async_progress_bytes_ = 0;
    // Last fragment lands at the end of this frame period.
    simulator().schedule_in(frame_period_,
                            [this, done = std::move(done)] { deliver(done); });
  }
}

}  // namespace ev::network

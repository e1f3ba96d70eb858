/// \file most.h
/// Media Oriented Systems Transport model: the infotainment ring of Fig. 1.
/// MOST divides a fixed 44.1 kHz frame into a synchronous region (reserved
/// streaming bandwidth, constant latency) and an asynchronous region
/// (packet data, FCFS) — modelled here at the bandwidth-allocation level.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "ev/network/bus.h"

namespace ev::network {

/// A reserved synchronous stream.
struct MostStream {
  std::uint32_t stream_id = 0;    ///< Frame id carrying this stream.
  std::size_t bytes_per_frame = 4;  ///< Reserved bytes in every MOST frame.
};

/// MOST25-style ring: 25 Mbit/s gross, 512-bit frames at 44.1 kHz.
class MostBus : public Bus {
 public:
  MostBus(sim::Simulator& sim, std::string name, std::vector<MostStream> streams,
          double bit_rate_bps = 25e6, double frame_rate_hz = 44100.0);

  /// Starts the ring's frame clock on the grid `start + k·T` (T = one frame
  /// period). The clock ticks only while asynchronous traffic is queued: the
  /// first frame that finds the queue empty stops it, and the next
  /// asynchronous send re-arms it at the earliest grid boundary that is at or
  /// after now and strictly after the last frame that ran. Frames and bus
  /// time are the same as with a clock that never stops; only idle kernel
  /// events are saved. Frames queued before start() are served from the
  /// first frame on.
  void start(sim::Time start = {});

  /// Frame period [s].
  [[nodiscard]] double frame_period_s() const noexcept { return 1.0 / frame_rate_hz_; }
  /// Bytes per frame available to asynchronous traffic.
  [[nodiscard]] std::size_t async_bytes_per_frame() const noexcept;
  /// Whether \p id has a reserved synchronous stream (constant latency path).
  [[nodiscard]] bool is_synchronous(std::uint32_t id) const {
    return streams_.count(id) > 0;
  }

 protected:
  /// Synchronous ids deliver after exactly one frame period (isochronous
  /// pipeline); other ids use the asynchronous region, which serves a
  /// limited byte budget per frame FCFS.
  bool do_send(Frame frame) override;

 private:
  void run_frame();
  /// Schedules the periodic frame tick, first firing at \p first.
  void arm(sim::Time first);
  /// Re-arms a dormant frame clock on its grid (see start()).
  void wake();

  std::map<std::uint32_t, MostStream> streams_;
  double frame_rate_hz_;
  sim::Time frame_period_;  ///< frame_period_s() as integer time.
  std::size_t frame_bytes_;  ///< Total bytes per MOST frame.
  std::size_t sync_bytes_ = 0;
  std::deque<Frame> async_queue_;
  std::size_t async_progress_bytes_ = 0;  ///< Bytes of queue head already carried.
  bool started_ = false;
  sim::Time grid_origin_{};  ///< The start() time every frame is aligned to.
  sim::Time last_frame_{};   ///< When the most recent frame tick ran.
  sim::ScheduledHandle frame_clock_;  ///< Owns the frame tick while armed.
};

}  // namespace ev::network

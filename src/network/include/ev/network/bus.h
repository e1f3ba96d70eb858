/// \file bus.h
/// Common interface of the in-vehicle bus models. Every bus is a broadcast
/// medium driven by the discrete-event simulator; concrete classes implement
/// the protocol-specific media access (arbitration, schedule table, TDMA,
/// switching) that determines latency and determinism. The base class also
/// hosts the protocol-independent fault model (frame drop, payload
/// corruption caught by the delivery CRC check, transient bus-off) used by
/// the ev::faults injection layer; with no fault armed the hot paths pay one
/// untaken branch each.
#pragma once

#include <cstddef>
#include <string>

#include "ev/network/frame.h"
#include "ev/obs/metrics.h"
#include "ev/sim/simulator.h"
#include "ev/util/stats.h"

namespace ev::network {

/// Abstract broadcast bus.
class Bus {
 public:
  /// \p sim must outlive the bus.
  Bus(sim::Simulator& sim, std::string name, double bit_rate_bps);
  virtual ~Bus() = default;
  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Queues \p frame for transmission from its source node. Returns false if
  /// the protocol rejects it (payload too large, no slot assigned, ...) or
  /// the medium is in an injected bus-off recovery window.
  /// This is the one place a frame is stamped, once the bus-off gate has
  /// passed: frame.created, if unset (zero), becomes the current time
  /// (gateways keep the original stamp so end-to-end latency spans hops),
  /// and frame.sequence becomes the bus's next sequence number, the FIFO
  /// key of ArbitrationQueue. A frame the protocol then rejects still uses
  /// its number; sequences stay increasing, which is all the order needs.
  bool send(Frame frame);

  /// Registers a broadcast receiver; every delivered frame is passed to all
  /// subscribers (nodes filter by id themselves, as real controllers do with
  /// acceptance masks).
  void subscribe(DeliveryHandler handler) { receivers_.push_back(std::move(handler)); }

  /// Bus name (for reports).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Nominal bit rate [bit/s].
  [[nodiscard]] double bit_rate() const noexcept { return bit_rate_bps_; }
  /// Fraction of elapsed simulation time the medium was busy, in [0,1].
  [[nodiscard]] double utilization() const noexcept;
  /// Frames delivered so far.
  [[nodiscard]] std::size_t delivered_count() const noexcept { return latency_s_.count(); }
  /// Queue-to-delivery latency summary [s]: count, sum, min and max of every
  /// delivered frame in constant memory (no per-frame sample is kept; a
  /// reader that needs percentiles collects them through subscribe()).
  /// util::summarize() reads it as a SampleSeries would.
  [[nodiscard]] const util::RunningStats& latency() const noexcept { return latency_s_; }
  /// Total payload bytes delivered (goodput accounting).
  [[nodiscard]] std::size_t delivered_payload_bytes() const noexcept {
    return delivered_bytes_;
  }

  /// Attaches observability. Registers (under the bus name):
  ///  - counter   `net.<name>.frames` — frames delivered
  ///  - counter   `net.<name>.payload_bytes` — goodput
  ///  - histogram `net.<name>.frame_latency_us` — queue-to-delivery latency
  ///  - gauge     `net.<name>.utilization` — busy fraction, updated on every
  ///    delivery (bus-load gauge)
  ///  - counters  `net.<name>.fault.dropped` / `.fault.corrupted` /
  ///    `.fault.busoff_rejected` — injected-fault accounting
  /// Ids are interned here; delivery stays allocation-free. \p registry must
  /// outlive the bus's use of it.
  void attach_observer(obs::MetricsRegistry& registry);

  // --- fault injection (driven by ev::faults; zero-cost while unused) ------
  /// Drops the next \p frames deliveries silently (frame loss on the medium).
  void inject_drop(std::size_t frames) noexcept { drop_pending_ += frames; }
  /// Bit-corrupts the payload of the next \p frames deliveries. The delivery
  /// path recomputes the CRC-15 checksum, detects the mismatch, and discards
  /// the frame (the receiver-side CRC reaction every protocol shares).
  void inject_corruption(std::size_t frames) noexcept { corrupt_pending_ += frames; }
  /// Takes the medium offline: send() rejects every frame until \p recovery
  /// has elapsed (transient bus-off / error-passive recovery).
  void inject_bus_off(sim::Time recovery);
  /// True while an injected bus-off window is active.
  [[nodiscard]] bool bus_off() const noexcept;
  /// Frames discarded by injected drop faults.
  [[nodiscard]] std::size_t fault_dropped_count() const noexcept { return fault_dropped_; }
  /// Frames discarded after a CRC mismatch caused by injected corruption.
  [[nodiscard]] std::size_t fault_corrupted_count() const noexcept {
    return fault_corrupted_;
  }
  /// Sends rejected while the bus was in an injected bus-off window.
  [[nodiscard]] std::size_t busoff_rejected_count() const noexcept {
    return busoff_rejected_;
  }

 protected:
  /// Protocol-specific media access; called by send() once the fault gate
  /// has passed, with \p frame already stamped. Same contract as send().
  virtual bool do_send(Frame frame) = 0;
  /// Transmission time of \p bits at the nominal rate.
  [[nodiscard]] sim::Time tx_time(std::size_t bits) const noexcept;
  /// Invokes all receivers and records latency/stat accounting.
  void deliver(const Frame& frame);
  /// Accounts \p busy time of the medium.
  void account_busy(sim::Time busy) noexcept { busy_ += busy; }
  /// The simulation kernel.
  [[nodiscard]] sim::Simulator& simulator() noexcept { return *sim_; }
  /// The registry attach_observer() wired up, or nullptr. Lets protocol
  /// subclasses register their own metrics lazily (e.g. only once a fault
  /// model is armed) without widening the default metric set.
  [[nodiscard]] obs::MetricsRegistry* observer() const noexcept { return metrics_; }

 private:
  /// Consumes one pending drop/corruption fault for \p frame; true when the
  /// frame must be discarded instead of delivered.
  bool consume_delivery_fault(const Frame& frame);

  sim::Simulator* sim_;
  std::string name_;
  double bit_rate_bps_;
  std::vector<DeliveryHandler> receivers_;
  sim::Time busy_{};
  std::size_t delivered_bytes_ = 0;
  util::RunningStats latency_s_;
  std::uint64_t seq_ = 0;
  // Injected-fault state (all zero on the happy path).
  std::size_t drop_pending_ = 0;
  std::size_t corrupt_pending_ = 0;
  sim::Time bus_off_until_{};
  std::size_t fault_dropped_ = 0;
  std::size_t fault_corrupted_ = 0;
  std::size_t busoff_rejected_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricId frames_metric_ = obs::kInvalidId;
  obs::MetricId bytes_metric_ = obs::kInvalidId;
  obs::MetricId latency_metric_ = obs::kInvalidId;
  obs::MetricId utilization_metric_ = obs::kInvalidId;
  obs::MetricId fault_dropped_metric_ = obs::kInvalidId;
  obs::MetricId fault_corrupted_metric_ = obs::kInvalidId;
  obs::MetricId busoff_rejected_metric_ = obs::kInvalidId;
};

}  // namespace ev::network

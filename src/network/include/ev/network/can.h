/// \file can.h
/// Controller Area Network model: event-triggered, non-destructive
/// priority arbitration (lowest identifier wins), non-preemptive
/// transmission, broadcast delivery. Includes the classic worst-case
/// response-time analysis for periodic CAN traffic, the tool that exposes
/// why unbounded event-triggered buses struggle with the determinism the
/// paper demands for EV control traffic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ev/network/bus.h"
#include "ev/util/rng.h"

namespace ev::network {

/// Seeded stochastic transmission-error process for a CAN bus, the
/// simulation side of the E24 probabilistic timing analysis. Both channels
/// may be active at once:
///  - Poisson: bit errors arrive at `poisson_rate_per_s` on the wire clock;
///    an arrival during a transmission destroys that frame.
///  - Bernoulli: each transmission attempt independently errors with
///    `per_attempt_prob` (detected at the end of the frame, the worst case).
/// An errored frame pays the 31-bit error-flag recovery and re-enters
/// arbitration with its original FIFO position (CAN automatic
/// retransmission) — errors add latency, they never lose frames.
struct CanErrorModel {
  double poisson_rate_per_s = 0.0;  ///< Errors per second (>= 0).
  double per_attempt_prob = 0.0;    ///< Per-attempt error probability [0, 1].
  std::uint64_t seed = 1;           ///< Seed of the private error Rng.

  [[nodiscard]] bool armed() const noexcept {
    return poisson_rate_per_s > 0.0 || per_attempt_prob > 0.0;
  }
  friend bool operator==(const CanErrorModel&, const CanErrorModel&) = default;
};

/// CAN 2.0A bus. Payload limited to 8 bytes; frames exceeding it are
/// rejected by send(). Waiting frames sit in an ArbitrationQueue: whenever
/// the medium goes idle its top() (lowest id, FIFO among equal ids) wins,
/// in O(log n) however deep the backlog of an overloaded bus grows.
class CanBus : public Bus {
 public:
  /// \p bit_rate_bps is the nominal rate (classic high-speed CAN: 500 kbit/s;
  /// the protocol maximum is 1 Mbit/s).
  CanBus(sim::Simulator& sim, std::string name, double bit_rate_bps = 500e3);

  /// Number of frames waiting for arbitration right now.
  [[nodiscard]] std::size_t queue_depth() const noexcept { return pending_.size(); }

  /// On-the-wire size of a CAN frame with \p payload_bytes of data,
  /// including worst-case bit stuffing, in bits (standard 11-bit identifier).
  [[nodiscard]] static std::size_t frame_bits(std::size_t payload_bytes) noexcept;

  /// Active error flag (6) + error delimiter (8) + intermission (3) plus the
  /// worst-case echo of superposed flags — the classic 31-bit recovery
  /// overhead Broster's analysis charges per error.
  static constexpr std::size_t kErrorRecoveryBits = 31;

  /// Arms (or, with an all-zero model, disarms) the seeded error process.
  /// With no model ever armed the transmission path pays one untaken branch
  /// — behaviour and observable state stay bit-identical to a plain bus.
  /// Registers counter `net.<name>.fault.errors` when an observer is
  /// attached and the model is armed.
  void arm_error_model(const CanErrorModel& model);

  /// Transmission attempts destroyed by the armed error model (each one
  /// caused exactly one retransmission).
  [[nodiscard]] std::size_t fault_error_count() const noexcept { return fault_errors_; }

 protected:
  bool do_send(Frame frame) override;

 private:
  void try_start_transmission();
  void finish_transmission();
  void abort_transmission();
  /// First error striking a transmission of length \p tx starting now, as an
  /// offset from now, or unset when this attempt goes through clean.
  [[nodiscard]] std::optional<sim::Time> next_error_within(sim::Time tx);

  ArbitrationQueue pending_;
  std::optional<Frame> transmitting_;  // set while the medium is busy
  // Injected-error state (inert until arm_error_model).
  bool error_armed_ = false;
  CanErrorModel error_model_;
  util::Rng error_rng_;
  double next_error_s_ = 0.0;  // absolute time of the next Poisson arrival
  std::size_t fault_errors_ = 0;
  obs::MetricId fault_errors_metric_ = obs::kInvalidId;
};

/// One periodic message for the offline response-time analysis.
struct CanMessageSpec {
  std::uint32_t id = 0;          ///< Identifier (priority, lower wins).
  std::size_t payload_bytes = 8; ///< Data length.
  double period_s = 0.01;        ///< Activation period.
  double jitter_s = 0.0;         ///< Release jitter.
};

/// Result of the analysis for one message.
struct CanResponseTime {
  std::uint32_t id = 0;
  double worst_case_s = 0.0;  ///< Upper bound on queuing + transmission time.
  bool schedulable = true;    ///< False if the bound exceeded the period (busy
                              ///< period diverges within one period).
};

/// Working storage of can_response_times, owned by the caller. A caller
/// that runs the analysis many times (the analyzer's CAN pass, the
/// probabilistic ladder, the synthesizer's priority assignment) keeps one
/// and passes it to every call, so the buffers stop allocating once they
/// have grown to the largest message set. Nothing carries over from one
/// call to the next except capacity.
struct CanRtaScratch {
  std::vector<CanMessageSpec> sorted;  ///< The messages in ascending id order.
  std::vector<double> tx;              ///< Transmission time per sorted message.
  std::vector<double> block;           ///< Suffix max of tx: blocking per level.
  std::vector<CanResponseTime> results;
};

/// Classic worst-case response-time analysis (Tindell; Davis et al. 2007
/// revision): R_i = J_i + w_i + C_i with the blocking + higher-priority
/// interference fixed point for w_i. \p bit_rate_bps must match the bus.
/// Returns one result per message in ascending id order (std::sort on the
/// input order, so equal ids keep no particular order), stored in
/// \p scratch.results and valid until the next call with \p scratch.
const std::vector<CanResponseTime>& can_response_times(
    const std::vector<CanMessageSpec>& messages, double bit_rate_bps,
    CanRtaScratch& scratch);

/// Broster-style fault-aware variant: the busy period additionally absorbs
/// \p errors error recoveries of \p error_overhead_s each (error flag plus
/// the retransmission of the longest frame), i.e. R_i(k) with
/// w = B_i + k*O + interference. With (0.0, 0) this is bit-identical to the
/// error-free analysis above — the probabilistic pass degenerates to the
/// deterministic bound by construction.
const std::vector<CanResponseTime>& can_response_times(
    const std::vector<CanMessageSpec>& messages, double bit_rate_bps,
    double error_overhead_s, int errors, CanRtaScratch& scratch);

}  // namespace ev::network

#include "ev/network/can.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ev::network {

CanBus::CanBus(sim::Simulator& sim, std::string name, double bit_rate_bps)
    : Bus(sim, std::move(name), bit_rate_bps) {}

std::size_t CanBus::frame_bits(std::size_t payload_bytes) noexcept {
  // Standard frame: SOF(1) + ID(11) + RTR(1) + control(6) + data(8n) +
  // CRC(15) + CRC del(1) + ACK(2) + EOF(7) + IFS(3) = 47 + 8n, of which
  // 34 + 8n bits are subject to stuffing (worst case one stuff bit per 4).
  const std::size_t n = payload_bytes;
  return 47 + 8 * n + (34 + 8 * n - 1) / 4;
}

bool CanBus::do_send(Frame frame) {
  if (frame.payload_size > 8) return false;
  pending_.push(std::move(frame));
  try_start_transmission();
  return true;
}

void CanBus::try_start_transmission() {
  if (transmitting_ || pending_.empty()) return;
  transmitting_ = pending_.pop();
  const sim::Time tx = tx_time(frame_bits(transmitting_->payload_size));
  if (error_armed_) {
    if (const std::optional<sim::Time> hit = next_error_within(tx)) {
      // The frame dies `*hit` into the attempt; the bus then signals the
      // error flag before arbitration reopens and the frame retransmits.
      const sim::Time recovery = *hit + tx_time(kErrorRecoveryBits);
      ++fault_errors_;
      if (observer() != nullptr) observer()->add(fault_errors_metric_);
      account_busy(recovery);
      simulator().schedule_in(recovery, [this] { abort_transmission(); });
      return;
    }
  }
  account_busy(tx);
  simulator().schedule_in(tx, [this] { finish_transmission(); });
}

void CanBus::finish_transmission() {
  deliver(*transmitting_);
  transmitting_.reset();
  try_start_transmission();
}

void CanBus::abort_transmission() {
  // CAN automatic retransmission: the destroyed frame re-enters arbitration
  // keeping its original sequence (and hence its FIFO position among equal
  // identifiers) — errors delay frames, they never drop them.
  pending_.push(std::move(*transmitting_));
  transmitting_.reset();
  try_start_transmission();
}

void CanBus::arm_error_model(const CanErrorModel& model) {
  error_model_ = model;
  error_armed_ = model.armed();
  error_rng_ = util::Rng(model.seed);
  next_error_s_ = std::numeric_limits<double>::infinity();
  if (model.poisson_rate_per_s > 0.0)
    next_error_s_ = simulator().now().to_seconds() +
                    error_rng_.exponential(model.poisson_rate_per_s);
  if (error_armed_ && observer() != nullptr && fault_errors_metric_ == obs::kInvalidId)
    fault_errors_metric_ = observer()->counter("net." + name() + ".fault.errors");
}

std::optional<sim::Time> CanBus::next_error_within(sim::Time tx) {
  const double now_s = simulator().now().to_seconds();
  const double tx_s = tx.to_seconds();
  double hit_s = std::numeric_limits<double>::infinity();
  if (error_model_.poisson_rate_per_s > 0.0) {
    // Arrivals that fell while the bus was idle hit no frame; advancing by
    // fresh exponential gaps keeps the process Poisson on the wire clock.
    while (next_error_s_ < now_s)
      next_error_s_ += error_rng_.exponential(error_model_.poisson_rate_per_s);
    if (next_error_s_ < now_s + tx_s) {
      hit_s = next_error_s_ - now_s;
      next_error_s_ += error_rng_.exponential(error_model_.poisson_rate_per_s);
    }
  }
  if (error_model_.per_attempt_prob > 0.0 &&
      error_rng_.bernoulli(error_model_.per_attempt_prob))
    // A CRC-detected corruption surfaces at the end of the frame.
    hit_s = std::min(hit_s, tx_s);
  if (!std::isfinite(hit_s)) return std::nullopt;
  return sim::Time::seconds(hit_s);
}

const std::vector<CanResponseTime>& can_response_times(
    const std::vector<CanMessageSpec>& messages, double bit_rate_bps,
    CanRtaScratch& scratch) {
  return can_response_times(messages, bit_rate_bps, 0.0, 0, scratch);
}

const std::vector<CanResponseTime>& can_response_times(
    const std::vector<CanMessageSpec>& messages, double bit_rate_bps,
    double error_overhead_s, int errors, CanRtaScratch& scratch) {
  const double tau_bit = 1.0 / bit_rate_bps;
  // k error recoveries lengthen every level-i busy period by k*O (Broster
  // 2002). With zero errors this term is +0.0, leaving the error-free fixed
  // point bit-identical.
  const double recovery = error_overhead_s * static_cast<double>(errors);

  std::vector<CanMessageSpec>& sorted = scratch.sorted;
  sorted.assign(messages.begin(), messages.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const CanMessageSpec& a, const CanMessageSpec& b) { return a.id < b.id; });

  // Each frame's transmission time, once. Blocking of level i is the longest
  // lower-priority frame that may have started: block[i + 1], a suffix max.
  const std::size_t n = sorted.size();
  std::vector<double>& tx = scratch.tx;
  tx.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    tx[i] = static_cast<double>(CanBus::frame_bits(sorted[i].payload_bytes)) * tau_bit;
  std::vector<double>& block = scratch.block;
  block.assign(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) block[i] = std::max(block[i + 1], tx[i]);

  std::vector<CanResponseTime>& results = scratch.results;
  results.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const CanMessageSpec& mi = sorted[i];
    const double blocking = block[i + 1];

    // Fixed point on the queuing delay w.
    double w = blocking + recovery;
    bool converged = false;
    for (int iter = 0; iter < 10000; ++iter) {
      double w_next = blocking + recovery;
      for (std::size_t j = 0; j < i; ++j) {
        const CanMessageSpec& mj = sorted[j];
        w_next += std::ceil((w + mj.jitter_s + tau_bit) / mj.period_s) * tx[j];
      }
      if (std::fabs(w_next - w) < 1e-12) {
        w = w_next;
        converged = true;
        break;
      }
      w = w_next;
      if (w > 10.0 * mi.period_s) break;  // clearly diverging
    }
    CanResponseTime r;
    r.id = mi.id;
    r.worst_case_s = mi.jitter_s + w + tx[i];
    r.schedulable = converged && r.worst_case_s <= mi.period_s;
    results.push_back(r);
  }
  return results;
}

}  // namespace ev::network

#include "ev/network/bus.h"

#include <stdexcept>

#include "ev/util/crc.h"

namespace ev::network {

Bus::Bus(sim::Simulator& sim, std::string name, double bit_rate_bps)
    : sim_(&sim), name_(std::move(name)), bit_rate_bps_(bit_rate_bps) {
  if (bit_rate_bps <= 0.0) throw std::invalid_argument("Bus: bit rate must be positive");
}

sim::Time Bus::tx_time(std::size_t bits) const noexcept {
  return sim::Time::seconds(static_cast<double>(bits) / bit_rate_bps_);
}

double Bus::utilization() const noexcept {
  const double elapsed = sim_->now().to_seconds();
  if (elapsed <= 0.0) return 0.0;
  return busy_.to_seconds() / elapsed;
}

bool Bus::send(Frame frame) {
  if (bus_off_until_ != sim::Time{} && sim_->now() < bus_off_until_) {
    ++busoff_rejected_;
    if (metrics_) metrics_->add(busoff_rejected_metric_);
    return false;
  }
  if (frame.created == sim::Time{}) frame.created = sim_->now();
  frame.sequence = seq_++;
  return do_send(std::move(frame));
}

void Bus::inject_bus_off(sim::Time recovery) { bus_off_until_ = sim_->now() + recovery; }

bool Bus::bus_off() const noexcept {
  return bus_off_until_ != sim::Time{} && sim_->now() < bus_off_until_;
}

bool Bus::consume_delivery_fault(const Frame& frame) {
  if (drop_pending_ > 0) {
    --drop_pending_;
    ++fault_dropped_;
    if (metrics_) metrics_->add(fault_dropped_metric_);
    return true;
  }
  // Corruption: flip one payload bit in flight; the receiving controller's
  // CRC check catches the mismatch and discards the frame. Frames carrying
  // actual payload bytes exercise the real CRC-15 machinery; size-only
  // frames model the same detected-and-discarded outcome directly.
  --corrupt_pending_;
  if (!frame.payload.empty()) {
    const std::uint16_t expected = util::crc15_can(frame.payload);
    std::vector<std::uint8_t> mangled = frame.payload;
    mangled[0] ^= 0x01;
    if (util::crc15_can(mangled) == expected) return false;  // undetectable (never for CRC-15)
  }
  ++fault_corrupted_;
  if (metrics_) metrics_->add(fault_corrupted_metric_);
  return true;
}

void Bus::deliver(const Frame& frame) {
  if (drop_pending_ > 0 || corrupt_pending_ > 0) {
    if (consume_delivery_fault(frame)) return;
  }
  delivered_bytes_ += frame.payload_size;
  const sim::Time latency = sim_->now() - frame.created;
  latency_s_.add(latency.to_seconds());
  if (metrics_) {
    metrics_->add(frames_metric_);
    metrics_->add(bytes_metric_, frame.payload_size);
    metrics_->observe(latency_metric_, latency.to_us());
    metrics_->set(utilization_metric_, utilization());
  }
  for (const auto& r : receivers_) r(frame, sim_->now());
}

void Bus::attach_observer(obs::MetricsRegistry& registry) {
  const std::string base = "net." + name_ + ".";
  metrics_ = &registry;
  frames_metric_ = registry.counter(base + "frames");
  bytes_metric_ = registry.counter(base + "payload_bytes");
  latency_metric_ = registry.histogram(base + "frame_latency_us", 0.0, 1e5, 64);
  utilization_metric_ = registry.gauge(base + "utilization");
  fault_dropped_metric_ = registry.counter(base + "fault.dropped");
  fault_corrupted_metric_ = registry.counter(base + "fault.corrupted");
  busoff_rejected_metric_ = registry.counter(base + "fault.busoff_rejected");
}

}  // namespace ev::network

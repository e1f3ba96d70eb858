#include "ev/middleware/pubsub.h"

#include <limits>
#include <stdexcept>

namespace ev::middleware {

void PubSubBroker::subscribe(TopicId topic, SampleHandler handler) {
  if (!handler) throw std::invalid_argument("PubSubBroker: null handler");
  subscribers_[topic].push_back(std::move(handler));
}

void PubSubBroker::publish(TopicId topic, std::span<const std::uint8_t> data,
                           std::int64_t now_us) {
  if (arena_.size() + data.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("PubSubBroker: pending payload arena exceeds 4 GiB");
  const auto offset = static_cast<std::uint32_t>(arena_.size());
  arena_.insert(arena_.end(), data.begin(), data.end());
  pending_.push_back(
      Pending{topic, offset, static_cast<std::uint32_t>(data.size()), now_us});
  if (metrics_)
    metrics_->set_max(backlog_peak_metric_, static_cast<double>(pending_.size()));
}

void PubSubBroker::flush() { flush_impl(/*timed=*/false, 0); }

void PubSubBroker::flush(std::int64_t now_us) { flush_impl(/*timed=*/true, now_us); }

void PubSubBroker::flush_impl(bool timed, std::int64_t now_us) {
  // Deliveries may trigger further publications; those accumulate in the
  // swapped-in (empty) twin buffers and wait for the next flush point, which
  // keeps delivery timing deterministic and the handed-out views stable. The
  // batch lives in locals (seeded with the retained scratch capacity, handed
  // back afterwards) so even a re-entrant flush from a handler stays safe.
  std::vector<Pending> batch = std::move(flushing_);
  std::vector<std::uint8_t> bytes = std::move(flushing_arena_);
  batch.swap(pending_);
  bytes.swap(arena_);
  for (const Pending& p : batch) {
    const auto it = subscribers_.find(p.topic);
    if (it == subscribers_.end()) continue;
    const SampleView view{std::span<const std::uint8_t>(bytes.data() + p.offset, p.length),
                          p.published_us};
    for (const auto& handler : it->second) {
      handler(view);
      ++delivered_;
      if (metrics_) {
        metrics_->add(delivered_metric_);
        if (timed)
          metrics_->observe(latency_us_metric_,
                            static_cast<double>(now_us - p.published_us));
      }
    }
  }
  batch.clear();
  bytes.clear();
  flushing_ = std::move(batch);
  flushing_arena_ = std::move(bytes);
}

void PubSubBroker::attach_observer(obs::MetricsRegistry& registry,
                                   std::string_view prefix) {
  const std::string base = std::string(prefix) + ".pubsub.";
  metrics_ = &registry;
  delivered_metric_ = registry.counter(base + "delivered");
  latency_us_metric_ = registry.histogram(base + "delivery_latency_us", 0.0, 1e6, 64);
  backlog_peak_metric_ = registry.gauge(base + "backlog.peak");
}

}  // namespace ev::middleware

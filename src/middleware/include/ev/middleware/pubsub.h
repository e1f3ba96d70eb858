/// \file pubsub.h
/// Typed publish/subscribe signal plane of the middleware. Publications are
/// buffered and flushed at deterministic points chosen by the dispatcher
/// (end of each partition window), so communication timing is independent
/// of *where* a subscriber runs — the location transparency that lets
/// software tasks "be distributed in a more flexible way".
///
/// Hot-path storage: published payloads are appended to a flat byte arena
/// and described by small fixed-size records; flush() swaps the arena with a
/// reusable scratch buffer (a two-deep ring) and hands subscribers views
/// (std::span) into it. After the buffers warm up to the scenario's peak
/// backlog, a publish/flush cycle performs no heap allocation and payload
/// bytes are copied exactly once (publisher -> arena).
///
/// Applications use the typed Topic<T> wrapper; the raw byte-oriented broker
/// API remains for gateways and generic tooling that forward opaque samples.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "ev/obs/metrics.h"

namespace ev::middleware {

/// Topic identifier.
using TopicId = std::uint32_t;

/// A delivered sample: a borrowed view of the payload bytes plus the
/// publication timestamp [us]. The view is valid only for the duration of
/// the subscriber callback (it points into the broker's flush buffer);
/// subscribers that need the bytes later must copy them.
struct SampleView {
  std::span<const std::uint8_t> data;
  std::int64_t published_us = 0;
};

/// Subscriber callback. The view argument is valid only during the call.
using SampleHandler = std::function<void(const SampleView&)>;

/// Broker with deferred (deterministic) delivery.
class PubSubBroker {
 public:
  /// Registers \p handler for \p topic. Subscriptions are persistent.
  void subscribe(TopicId topic, SampleHandler handler);

  /// Buffers a copy of \p data on \p topic at time \p now_us; delivered on
  /// flush(). This is the zero-copy entry point: the bytes go straight into
  /// the broker's arena with no intermediate container.
  void publish(TopicId topic, std::span<const std::uint8_t> data, std::int64_t now_us);

  /// Delivers all buffered samples in publication order. Called by the
  /// dispatcher at deterministic schedule points. The \p now_us overload
  /// additionally attributes per-sample delivery latency (now - published)
  /// to the attached observer.
  void flush();
  void flush(std::int64_t now_us);

  /// Samples delivered so far.
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  /// Samples currently buffered.
  [[nodiscard]] std::size_t backlog() const noexcept { return pending_.size(); }

  /// Attaches observability. Registers (under \p prefix, e.g. "mw.ecu0"):
  ///  - counter   `<prefix>.pubsub.delivered`
  ///  - histogram `<prefix>.pubsub.delivery_latency_us`
  ///  - gauge     `<prefix>.pubsub.backlog.peak`
  /// \p registry must outlive the broker's use; ids are interned here so the
  /// publish/flush hot paths stay allocation-free.
  void attach_observer(obs::MetricsRegistry& registry, std::string_view prefix);

 private:
  /// Descriptor of one buffered publication; the payload bytes live in the
  /// arena at [offset, offset + length).
  struct Pending {
    TopicId topic;
    std::uint32_t offset;
    std::uint32_t length;
    std::int64_t published_us;
  };
  void flush_impl(bool timed, std::int64_t now_us);

  std::map<TopicId, std::vector<SampleHandler>> subscribers_;
  std::vector<Pending> pending_;
  std::vector<std::uint8_t> arena_;  ///< payload bytes of pending_ records
  // Scratch twins swapped in at each flush so deliveries triggering further
  // publications never invalidate the views being handed out. Capacity is
  // retained across flushes — a ring of depth two.
  std::vector<Pending> flushing_;
  std::vector<std::uint8_t> flushing_arena_;
  std::uint64_t delivered_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricId delivered_metric_ = obs::kInvalidId;
  obs::MetricId latency_us_metric_ = obs::kInvalidId;
  obs::MetricId backlog_peak_metric_ = obs::kInvalidId;
};

/// Typed view of one broker topic. T must be trivially copyable (POD-style:
/// the bytes on the wire *are* the object representation), which keeps the
/// plane deterministic and allocation-predictable — no serialization code,
/// no pointers smuggled through the middleware.
template <typename T>
class Topic {
  static_assert(std::is_trivially_copyable_v<T>,
                "Topic<T> payloads must be trivially copyable (POD)");
  static_assert(!std::is_pointer_v<T>,
                "Topic<T> must not carry pointers across partitions");

 public:
  /// Binds topic \p id on \p broker (which must outlive the Topic).
  Topic(PubSubBroker& broker, TopicId id) noexcept : broker_(&broker), id_(id) {}

  /// Publishes \p value at time \p now_us; delivered at the next flush. The
  /// object representation is written straight into the broker arena — no
  /// intermediate buffer.
  void publish(const T& value, std::int64_t now_us) {
    broker_->publish(
        id_,
        std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(&value),
                                      sizeof(T)),
        now_us);
  }

  /// Subscribes \p handler, callable as either handler(const T&) or
  /// handler(const T&, const SampleView&) when the publication metadata
  /// (timestamp) is needed.
  template <typename F>
  void subscribe(F handler) {
    broker_->subscribe(id_, [h = std::move(handler)](const SampleView& s) mutable {
      if constexpr (std::is_invocable_v<F&, const T&, const SampleView&>)
        h(decode(s), s);
      else
        h(decode(s));
    });
  }

  /// Reconstructs a value; throws std::invalid_argument on a size mismatch
  /// (subscribing the wrong type to a topic).
  [[nodiscard]] static T decode(const SampleView& sample) {
    if (sample.data.size() != sizeof(T))
      throw std::invalid_argument("Topic: sample size does not match payload type");
    T value;
    std::memcpy(&value, sample.data.data(), sizeof(T));
    return value;
  }
  [[nodiscard]] TopicId id() const noexcept { return id_; }
  [[nodiscard]] PubSubBroker& broker() noexcept { return *broker_; }

 private:
  PubSubBroker* broker_;
  TopicId id_;
};

}  // namespace ev::middleware

/// \file span_trace.h
/// Structured event tracing for the observability layer: spans carry a begin
/// and end timestamp in simulation time, an interned name and category, and
/// up to four key/value attributes stored inline. Memory is bounded by a
/// fixed capacity chosen at construction — when the sink is full, further
/// spans are counted as dropped instead of recorded, so tracing can stay
/// attached to long simulations. Completed logs export to the Chrome
/// `about:tracing` JSON format (see export.h).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ev/obs/metric_id.h"

namespace ev::obs {

/// Index of a span within the log; kInvalidId when the sink was full.
using SpanId = std::uint32_t;

/// One key/value annotation of a span. Keys are interned; values are scalar
/// so recording never allocates.
struct SpanAttr {
  MetricId key = kInvalidId;
  double value = 0.0;
};

/// A recorded interval. end_ns < begin_ns marks an open span, which
/// exporters skip.
struct Span {
  MetricId name = kInvalidId;      ///< Interned span label.
  MetricId category = kInvalidId;  ///< Interned category (trace viewer lane).
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = -1;
  std::array<SpanAttr, 4> attrs{};
  std::uint8_t attr_count = 0;
};

/// Bounded append-only span sink.
class TraceLog {
 public:
  /// \p capacity bounds the number of retained spans.
  explicit TraceLog(std::size_t capacity = 1 << 16) : capacity_(capacity) {}

  /// Interns \p s for use as a span name, category, or attribute key.
  MetricId intern(std::string_view s) { return names_.intern(s); }

  /// Records the interval [\p begin_ns, \p end_ns]. Returns kInvalidId (and
  /// counts a drop) when the sink is full; the other members tolerate that
  /// id. An \p end_ns before \p begin_ns leaves the span open.
  SpanId complete(MetricId name, MetricId category, std::int64_t begin_ns,
                  std::int64_t end_ns);

  /// Attaches key/value to a span; ignored beyond 4 attributes.
  void attr(SpanId id, MetricId key, double value) noexcept;

  /// Recorded spans in begin order.
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Spans rejected because the sink was at capacity.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// The name table (for exporters).
  [[nodiscard]] const Interner& names() const noexcept { return names_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Forgets all recorded spans (names stay interned).
  void clear() noexcept {
    spans_.clear();
    dropped_ = 0;
  }

 private:
  Interner names_;
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

}  // namespace ev::obs

#include "ev/obs/span_trace.h"

namespace ev::obs {

void TraceLog::attr(SpanId id, MetricId key, double value) noexcept {
  if (id >= spans_.size()) return;
  Span& s = spans_[id];
  if (s.attr_count >= s.attrs.size()) return;
  s.attrs[s.attr_count++] = SpanAttr{key, value};
}

SpanId TraceLog::complete(MetricId name, MetricId category, std::int64_t begin_ns,
                          std::int64_t end_ns) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return kInvalidId;
  }
  Span s;
  s.name = name;
  s.category = category;
  s.begin_ns = begin_ns;
  if (end_ns >= begin_ns) s.end_ns = end_ns;
  spans_.push_back(s);
  return static_cast<SpanId>(spans_.size() - 1);
}

}  // namespace ev::obs

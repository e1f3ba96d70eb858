#include "ev/obs/export.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <vector>

#include "ev/config/scenario.h"
#include "ev/util/json.h"

namespace ev::obs {

using config::format_double;
using util::json_escape;

namespace {

void write_histogram_json(const MetricsRegistry& reg, MetricId id, std::ostream& out) {
  const util::RunningStats& st = reg.histogram_stats(id);
  const util::Histogram& bins = reg.histogram_bins(id);
  // Empty stats report min=+inf/max=-inf; render those as 0 so the JSON
  // stays standard (and matches the historical empty-histogram output).
  const double min = st.count() > 0 ? st.min() : 0.0;
  const double max = st.count() > 0 ? st.max() : 0.0;
  out << "{\"count\":" << st.count() << ",\"mean\":" << format_double(st.mean())
      << ",\"stddev\":" << format_double(st.stddev())
      << ",\"min\":" << format_double(min) << ",\"max\":" << format_double(max)
      << ",\"sum\":" << format_double(st.sum())
      << ",\"nan\":" << bins.nan_count() << ",\"bins\":[";
  for (std::size_t i = 0; i < bins.bins(); ++i) {
    if (i) out << ',';
    out << bins.bin_count(i);
  }
  out << "]}";
}

std::vector<MetricId> ids_of_kind(const MetricsRegistry& reg, MetricKind kind) {
  std::vector<MetricId> ids;
  for (MetricId id = 0; id < reg.size(); ++id)
    if (reg.kind(id) == kind) ids.push_back(id);
  return ids;
}

}  // namespace

void write_metrics_json(const MetricsRegistry& reg, std::ostream& out) {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const MetricId id : ids_of_kind(reg, MetricKind::kCounter)) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(reg.name(id))
        << "\": " << reg.counter_value(id);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const MetricId id : ids_of_kind(reg, MetricKind::kGauge)) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(reg.name(id))
        << "\": " << format_double(reg.gauge_value(id));
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const MetricId id : ids_of_kind(reg, MetricKind::kHistogram)) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(reg.name(id)) << "\": ";
    write_histogram_json(reg, id, out);
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void write_metrics_csv(const MetricsRegistry& reg, std::ostream& out) {
  out << "kind,name,field,value\n";
  for (MetricId id = 0; id < reg.size(); ++id) {
    const std::string name = json_escape(reg.name(id));
    switch (reg.kind(id)) {
      case MetricKind::kCounter:
        out << "counter," << name << ",value," << reg.counter_value(id) << '\n';
        break;
      case MetricKind::kGauge:
        out << "gauge," << name << ",value," << format_double(reg.gauge_value(id))
            << '\n';
        break;
      case MetricKind::kHistogram: {
        const util::RunningStats& st = reg.histogram_stats(id);
        const double min = st.count() > 0 ? st.min() : 0.0;
        const double max = st.count() > 0 ? st.max() : 0.0;
        out << "histogram," << name << ",count," << st.count() << '\n';
        out << "histogram," << name << ",mean," << format_double(st.mean()) << '\n';
        out << "histogram," << name << ",stddev," << format_double(st.stddev()) << '\n';
        out << "histogram," << name << ",min," << format_double(min) << '\n';
        out << "histogram," << name << ",max," << format_double(max) << '\n';
        out << "histogram," << name << ",sum," << format_double(st.sum()) << '\n';
        out << "histogram," << name << ",nan," << reg.histogram_bins(id).nan_count()
            << '\n';
        break;
      }
    }
  }
}

void write_chrome_trace(const TraceLog& trace, std::ostream& out) {
  out << "[\n";
  bool first = true;
  for (const Span& s : trace.spans()) {
    if (s.end_ns < s.begin_ns) continue;  // open span: no complete event
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << json_escape(trace.names().name(s.name)) << "\",\"cat\":\""
        << json_escape(trace.names().name(s.category))
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
        << format_double(static_cast<double>(s.begin_ns) * 1e-3)
        << ",\"dur\":" << format_double(static_cast<double>(s.end_ns - s.begin_ns) * 1e-3);
    if (s.attr_count > 0) {
      out << ",\"args\":{";
      for (std::uint8_t i = 0; i < s.attr_count; ++i) {
        if (i) out << ',';
        out << '"' << json_escape(trace.names().name(s.attrs[i].key))
            << "\":" << format_double(s.attrs[i].value);
      }
      out << '}';
    }
    out << '}';
  }
  out << "\n]\n";
}

namespace {
template <typename Writer, typename Source>
bool write_file(const Source& source, const std::string& path, Writer writer) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  writer(source, out);
  return static_cast<bool>(out);
}
}  // namespace

bool write_metrics_json_file(const MetricsRegistry& reg, const std::string& path) {
  return write_file(reg, path, [](const MetricsRegistry& r, std::ostream& o) {
    write_metrics_json(r, o);
  });
}

bool write_metrics_csv_file(const MetricsRegistry& reg, const std::string& path) {
  return write_file(reg, path, [](const MetricsRegistry& r, std::ostream& o) {
    write_metrics_csv(r, o);
  });
}

bool write_chrome_trace_file(const TraceLog& trace, const std::string& path) {
  return write_file(trace, path, [](const TraceLog& t, std::ostream& o) {
    write_chrome_trace(t, o);
  });
}

}  // namespace ev::obs

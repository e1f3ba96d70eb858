/// \file export.h
/// Machine-readable exporters for the observability layer. Metric snapshots
/// render to JSON (one object; counters/gauges/histograms sections) and CSV
/// (`kind,name,field,value` rows); span traces render to the Chrome
/// `about:tracing` / Perfetto JSON array format with one complete event per
/// line. All floating-point values are printed with a fixed round-trippable
/// format, so two identical (same-seed) runs export byte-identical files.
#pragma once

#include <iosfwd>
#include <string>

#include "ev/obs/metrics.h"
#include "ev/obs/span_trace.h"

namespace ev::obs {

/// Writes one JSON object: {"counters":{...},"gauges":{...},"histograms":
/// {name:{count,mean,stddev,min,max,sum,lo,hi,bins:[...]}}}. Metrics appear
/// in registration order.
void write_metrics_json(const MetricsRegistry& registry, std::ostream& out);

/// Writes `kind,name,field,value` CSV rows (header included), one row per
/// scalar: counters/gauges one row, histograms one row per summary field.
void write_metrics_csv(const MetricsRegistry& registry, std::ostream& out);

/// Writes the Chrome about:tracing JSON array: one "X" (complete) event per
/// closed span — name, cat, ts/dur in microseconds, attributes as args.
/// Open spans are skipped.
void write_chrome_trace(const TraceLog& trace, std::ostream& out);

/// File-writing convenience wrappers; return false when the file cannot be
/// opened.
bool write_metrics_json_file(const MetricsRegistry& registry, const std::string& path);
bool write_metrics_csv_file(const MetricsRegistry& registry, const std::string& path);
bool write_chrome_trace_file(const TraceLog& trace, const std::string& path);

}  // namespace ev::obs

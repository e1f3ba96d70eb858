// Unit tests for the observability layer: metric registry semantics and
// determinism, histogram bounds, span sink capacity, and exporter
// round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ev/config/scenario.h"
#include "ev/obs/export.h"
#include "ev/obs/metric_id.h"
#include "ev/obs/metrics.h"
#include "ev/obs/span_trace.h"

namespace {

using namespace ev::obs;
using ev::config::format_double;

// ------------------------------------------------------------- interner ----

TEST(Interner, StableIdsAndLookup) {
  Interner in;
  const MetricId a = in.intern("alpha");
  const MetricId b = in.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.intern("alpha"), a);  // idempotent
  EXPECT_EQ(in.name(a), "alpha");
  EXPECT_TRUE(in.contains("beta"));
  EXPECT_FALSE(in.contains("gamma"));
  EXPECT_EQ(in.size(), 2u);
}

// ------------------------------------------------------------- registry ----

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("events");
  reg.add(c);
  reg.add(c, 9);
  EXPECT_EQ(reg.counter_value(c), 10u);
  EXPECT_EQ(reg.kind(c), MetricKind::kCounter);
}

TEST(Metrics, GaugeSetAndPeak) {
  MetricsRegistry reg;
  const MetricId g = reg.gauge("depth");
  reg.set(g, 3.0);
  reg.set_max(g, 1.0);  // lower value does not regress the peak
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), 3.0);
  reg.set_max(g, 7.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), 7.5);
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("x");
  EXPECT_EQ(reg.counter("x"), c);
  // Re-registering under a different kind is a caller bug, not a new metric.
  EXPECT_THROW((void)reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("x", 0, 1), std::invalid_argument);
}

TEST(Metrics, HotPathIgnoresInvalidAndMismatchedIds) {
  MetricsRegistry reg;
  const MetricId g = reg.gauge("g");
  // None of these may throw or corrupt state: detached instrumentation
  // (kInvalidId) and kind mismatches are silent no-ops by contract.
  reg.add(kInvalidId);
  reg.set(kInvalidId, 1.0);
  reg.observe(kInvalidId, 1.0);
  reg.add(g);           // counter op on a gauge
  reg.observe(g, 2.0);  // histogram op on a gauge
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), 0.0);
}

TEST(Metrics, ReadoutThrowsOnBadId) {
  MetricsRegistry reg;
  const MetricId g = reg.gauge("g");
  EXPECT_THROW((void)reg.counter_value(g), std::invalid_argument);
  EXPECT_THROW((void)reg.gauge_value(MetricId{99}), std::out_of_range);
}

TEST(Metrics, HistogramClampsToBoundaryBins) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("lat", 0.0, 100.0, 10);
  reg.observe(h, -5.0);    // below range -> first bin
  reg.observe(h, 1e9);     // above range -> last bin
  reg.observe(h, 55.0);    // in range
  const ev::util::Histogram& bins = reg.histogram_bins(h);
  EXPECT_EQ(bins.total(), 3u);
  EXPECT_EQ(bins.bin_count(0), 1u);
  EXPECT_EQ(bins.bin_count(9), 1u);
  EXPECT_EQ(bins.bin_count(5), 1u);
  // Streaming stats see the raw (unclamped) values.
  EXPECT_EQ(reg.histogram_stats(h).count(), 3u);
  EXPECT_DOUBLE_EQ(reg.histogram_stats(h).max(), 1e9);
}

TEST(Metrics, RegistrationOrderIsDeterministic) {
  // Two registries fed the same registration sequence hand out the same ids —
  // the property that makes exported snapshots byte-identical across runs.
  MetricsRegistry a, b;
  for (MetricsRegistry* reg : {&a, &b}) {
    (void)reg->counter("one");
    (void)reg->gauge("two");
    (void)reg->histogram("three", 0, 10, 4);
  }
  for (MetricId id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a.name(id), b.name(id));
    EXPECT_EQ(a.kind(id), b.kind(id));
  }
}

TEST(Metrics, ObserveNanCountsBucketWithoutPoisoningStats) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("lat", 0.0, 10.0, 4);
  reg.observe(h, 5.0);
  reg.observe(h, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(reg.histogram_bins(h).nan_count(), 1u);
  EXPECT_EQ(reg.histogram_bins(h).total(), 2u);
  EXPECT_EQ(reg.histogram_stats(h).count(), 1u);  // NaN never reaches the moments
  EXPECT_DOUBLE_EQ(reg.histogram_stats(h).mean(), 5.0);
  EXPECT_FALSE(std::isnan(reg.histogram_stats(h).min()));
}

TEST(Metrics, MergeSumsCountersMaxesGaugesCombinesHistograms) {
  MetricsRegistry a, b;
  a.add(a.counter("frames"), 3);
  b.add(b.counter("frames"), 4);
  a.set(a.gauge("depth.peak"), 2.0);
  b.set(b.gauge("depth.peak"), 5.0);
  a.observe(a.histogram("lat", 0.0, 10.0, 4), 1.0);
  b.observe(b.histogram("lat", 0.0, 10.0, 4), 9.0);
  b.set(b.gauge("only_b"), -4.0);  // unseen gauge copies, never maxes vs 0

  a.merge(b);
  EXPECT_EQ(a.counter_value(a.counter("frames")), 7u);
  EXPECT_DOUBLE_EQ(a.gauge_value(a.gauge("depth.peak")), 5.0);
  EXPECT_DOUBLE_EQ(a.gauge_value(a.gauge("only_b")), -4.0);
  const MetricId h = a.histogram("lat", 0.0, 10.0, 4);
  EXPECT_EQ(a.histogram_bins(h).total(), 2u);
  EXPECT_EQ(a.histogram_stats(h).count(), 2u);
  EXPECT_EQ(a.histogram_stats(h).min(), 1.0);
  EXPECT_EQ(a.histogram_stats(h).max(), 9.0);
}

TEST(Metrics, MergeSnapshotIsOrderIndependent) {
  // Campaign shards come from the same scenario code, so they register the
  // same names in the same order but accumulate different values. The
  // aggregate must not depend on which shard the fold sees first:
  // merge(A, B) and merge(B, A) export byte-identical JSON.
  const auto make_shard = [](std::uint64_t weight, int samples) {
    MetricsRegistry reg;
    reg.add(reg.counter("bus.frames"), 11 * weight);
    reg.set(reg.gauge("queue.peak"), 3.0 / static_cast<double>(weight));
    const MetricId h = reg.histogram("lat", 0.0, 100.0, 8);
    for (int k = 0; k < samples; ++k)
      reg.observe(h, 1.7 * k * static_cast<double>(weight));
    reg.add(reg.counter("bus.dropped"), weight);
    return reg;
  };
  const auto render = [](const MetricsRegistry& first,
                         const MetricsRegistry& second) {
    MetricsRegistry merged;
    merged.merge(first);
    merged.merge(second);
    std::ostringstream out;
    write_metrics_json(merged, out);
    return out.str();
  };
  const MetricsRegistry a = make_shard(1, 50);
  const MetricsRegistry b = make_shard(3, 20);
  EXPECT_EQ(render(a, b), render(b, a));
}

// ------------------------------------------------------------ span trace ----

TEST(SpanTrace, RecordsBeginAttrEnd) {
  TraceLog log;
  const MetricId name = log.intern("window");
  const MetricId cat = log.intern("partition");
  const MetricId key = log.intern("util");
  const SpanId s = log.complete(name, cat, 1000, 3000);
  log.attr(s, key, 0.5);
  ASSERT_EQ(log.spans().size(), 1u);
  const Span& span = log.spans().front();
  EXPECT_EQ(span.begin_ns, 1000);
  EXPECT_EQ(span.end_ns, 3000);
  ASSERT_EQ(span.attr_count, 1);
  EXPECT_EQ(span.attrs[0].key, key);
  EXPECT_DOUBLE_EQ(span.attrs[0].value, 0.5);
}

TEST(SpanTrace, BoundedCapacityCountsDrops) {
  TraceLog log(2);
  const MetricId n = log.intern("s");
  const MetricId c = log.intern("c");
  EXPECT_NE(log.complete(n, c, 0, 1), kInvalidId);
  EXPECT_NE(log.complete(n, c, 1, 2), kInvalidId);
  EXPECT_EQ(log.complete(n, c, 2, 3), kInvalidId);  // full
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  // Operations on the sentinel id are safe no-ops.
  log.attr(kInvalidId, n, 1.0);
}

// -------------------------------------------------------------- exporters ----

TEST(Export, FormatDoubleRoundTrips) {
  // Every exporter prints doubles through config::format_double.
  for (double v : {0.0, 1.0, -2.5, 3.141592653589793, 1e-30, 6.02e23, 0.1}) {
    const std::string s = format_double(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  // Shortest form wins: a clean decimal stays clean.
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(3.0), "3");
}

TEST(Export, CsvRoundTripsScalars) {
  MetricsRegistry reg;
  reg.add(reg.counter("frames"), 42);
  reg.set(reg.gauge("util"), 0.375);
  reg.observe(reg.histogram("lat", 0.0, 10.0, 4), 2.5);
  std::ostringstream out;
  write_metrics_csv(reg, out);

  // Parse the kind,name,field,value rows back and check the values survived.
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "kind,name,field,value");
  bool saw_counter = false, saw_gauge = false, saw_hist_count = false;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string kind, name, field, value;
    std::getline(row, kind, ',');
    std::getline(row, name, ',');
    std::getline(row, field, ',');
    std::getline(row, value, ',');
    if (name == "frames" && field == "value") {
      EXPECT_EQ(kind, "counter");
      EXPECT_EQ(value, "42");
      saw_counter = true;
    } else if (name == "util" && field == "value") {
      EXPECT_EQ(std::strtod(value.c_str(), nullptr), 0.375);
      saw_gauge = true;
    } else if (name == "lat" && field == "count") {
      EXPECT_EQ(value, "1");
      saw_hist_count = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist_count);
}

TEST(Export, JsonSnapshotContainsAllSections) {
  MetricsRegistry reg;
  reg.add(reg.counter("frames"), 7);
  reg.set(reg.gauge("util"), 0.5);
  reg.observe(reg.histogram("lat", 0.0, 10.0, 2), 4.0);
  std::ostringstream out;
  write_metrics_json(reg, out);
  const std::string j = out.str();
  EXPECT_NE(j.find("\"frames\": 7"), std::string::npos) << j;
  EXPECT_NE(j.find("\"util\": 0.5"), std::string::npos) << j;
  EXPECT_NE(j.find("\"bins\":[1,0]"), std::string::npos) << j;
}

TEST(Export, JsonSnapshotIsDeterministic) {
  auto render = [] {
    MetricsRegistry reg;
    reg.add(reg.counter("a"), 3);
    reg.set(reg.gauge("b"), 1.0 / 3.0);
    const MetricId h = reg.histogram("c", 0.0, 1.0, 8);
    for (int k = 0; k < 100; ++k) reg.observe(h, 0.01 * k);
    std::ostringstream out;
    write_metrics_json(reg, out);
    return out.str();
  };
  EXPECT_EQ(render(), render());  // byte-identical across identical runs
}

TEST(Export, ChromeTraceEmitsCompleteEvents) {
  TraceLog log;
  const MetricId name = log.intern("ctrl");
  const MetricId cat = log.intern("partition");
  const MetricId key = log.intern("util");
  const SpanId s = log.complete(name, cat, 2'000'000, 3'500'000);  // 2 ms in ns
  log.attr(s, key, 0.25);
  (void)log.complete(name, cat, 9'000'000, 0);  // open: must be skipped
  std::ostringstream out;
  write_chrome_trace(log, out);
  const std::string j = out.str();
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos) << j;
  EXPECT_NE(j.find("\"name\":\"ctrl\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"partition\""), std::string::npos);
  // ts/dur are microseconds; parse them so the exact decimal rendering
  // (plain vs exponent form) is not part of the contract.
  const auto number_after = [&](const char* tag) {
    const std::size_t pos = j.find(tag);
    EXPECT_NE(pos, std::string::npos) << tag;
    return std::strtod(j.c_str() + pos + std::string(tag).size(), nullptr);
  };
  EXPECT_DOUBLE_EQ(number_after("\"ts\":"), 2000.0);
  EXPECT_DOUBLE_EQ(number_after("\"dur\":"), 1500.0);
  EXPECT_DOUBLE_EQ(number_after("\"util\":"), 0.25);
  // Exactly one event: the open span produced none.
  EXPECT_EQ(j.find("\"ph\":\"X\"", j.find("\"ph\":\"X\"") + 1), std::string::npos);
  EXPECT_EQ(j.front(), '[');
  EXPECT_EQ(j.back(), '\n');
}

}  // namespace

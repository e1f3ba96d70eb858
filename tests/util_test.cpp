// Unit tests for ev::util — math helpers, deterministic RNG, statistics,
// table rendering, CRC, and the bounded ring buffer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "ev/util/crc.h"
#include "ev/util/json.h"
#include "ev/util/math.h"
#include "ev/util/ring_buffer.h"
#include "ev/util/rng.h"
#include "ev/util/stats.h"
#include "ev/util/table.h"
#include "ev/util/units.h"

namespace {

using namespace ev::util;

// ---------------------------------------------------------------- math ----

TEST(Math, ClampBounds) {
  EXPECT_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(Math, LerpEndpointsAndMidpoint) {
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 4.0, 0.5), 3.0);
}

TEST(Math, WrapAngleIntoRange) {
  EXPECT_NEAR(wrap_angle(3.0 * kTwoPi + 0.5), 0.5, 1e-12);
  EXPECT_NEAR(wrap_angle(-0.5), kTwoPi - 0.5, 1e-12);
}

TEST(Math, IntegerHelpers) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(gcd64(12, 18), 6);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(kmh_to_mps(36.0), 10.0);
  EXPECT_DOUBLE_EQ(j_to_wh(7200.0), 2.0);
}

// ----------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(9);
  bool seen[6] = {};
  for (int i = 0; i < 1000; ++i) seen[rng.uniform_int(0, 5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformIntFullRangeReturnsRawDraw) {
  // lo = INT64_MIN, hi = INT64_MAX makes the span wrap to zero; the draw
  // must come back unreduced instead of hitting a modulo by zero.
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  Rng a(21);
  Rng b(21);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.uniform_int(lo, hi), static_cast<std::int64_t>(b.next_u64()));
}

TEST(Rng, UniformIntNearFullRangeStaysInBounds) {
  // One below the full span: still wider than any positive int64, so the
  // reduction has to happen in the unsigned domain to avoid overflow.
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max() - 1;
  Rng rng(22);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
}

TEST(Rng, UniformIntConsumesOneDrawPerCall) {
  // The full-range special case must not change how much state a call
  // advances, so downstream draws stay aligned across range choices.
  Rng a(23);
  Rng b(23);
  (void)a.uniform_int(std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::max());
  (void)b.uniform_int(0, 5);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanApproximate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.08);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

// --------------------------------------------------------------- stats ----

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, EmptyMinMaxAreIdentityElements) {
  // The documented empty-state contract: min() = +inf and max() = -inf, so
  // any real sample (or merge) replaces them. The old zero-initialised
  // state silently absorbed all-positive or all-negative streams.
  RunningStats s;
  EXPECT_EQ(s.min(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.max(), -std::numeric_limits<double>::infinity());
  s.add(4.0);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
  RunningStats negative;
  negative.add(-3.0);
  EXPECT_EQ(negative.min(), -3.0);
  EXPECT_EQ(negative.max(), -3.0);
}

TEST(RunningStats, MergeMatchesSinglePass) {
  RunningStats whole, left, right;
  for (int i = 0; i < 40; ++i) {
    const double x = 0.37 * i - 5.0;
    whole.add(x);
    (i < 17 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.mean(), whole.mean());
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
}

TEST(RunningStats, MergeIsBitwiseCommutative) {
  // The campaign fold depends on merge(A,B) == merge(B,A) down to the last
  // bit — every subexpression in the merge is symmetric in its operands.
  RunningStats a, b;
  for (int i = 0; i < 23; ++i) a.add(1.0 / (i + 1));
  for (int i = 0; i < 9; ++i) b.add(-7.25 * i + 0.125);
  RunningStats ab = a;
  ab.merge(b);
  RunningStats ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.mean(), ba.mean());
  EXPECT_EQ(ab.variance(), ba.variance());
  EXPECT_EQ(ab.min(), ba.min());
  EXPECT_EQ(ab.max(), ba.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats filled;
  filled.add(1.0);
  filled.add(3.0);
  RunningStats empty;
  RunningStats from_empty = empty;
  from_empty.merge(filled);
  EXPECT_EQ(from_empty.count(), 2u);
  EXPECT_DOUBLE_EQ(from_empty.mean(), 2.0);
  filled.merge(empty);
  EXPECT_EQ(filled.count(), 2u);
  EXPECT_EQ(filled.min(), 1.0);
  EXPECT_EQ(filled.max(), 3.0);
}

TEST(SampleSeries, SummaryOfRunningStatsReadsTheSame) {
  RunningStats stats;
  SampleSeries series;
  EXPECT_EQ(summarize(stats).mean, series.mean());
  EXPECT_EQ(summarize(stats).min, series.min());
  EXPECT_EQ(summarize(stats).max, series.max());
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(1e-6, 3e-3);
    stats.add(x);
    series.add(x);
  }
  const SeriesSummary summary = summarize(stats);
  EXPECT_EQ(summary.count, series.count());
  EXPECT_EQ(summary.mean, series.mean());  // bit for bit, not Welford's mean
  EXPECT_EQ(summary.min, series.min());
  EXPECT_EQ(summary.max, series.max());
}

TEST(SampleSeries, PercentilesExact) {
  SampleSeries s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.02);
}

TEST(SampleSeries, PercentileAfterMoreSamples) {
  SampleSeries s;
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 10.0);
  s.add(20.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.percentile(100), 20.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // clamps into first bin
  h.add(100.0);   // clamps into last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, ExtremeValuesClampWithoutOverflow) {
  // ±1e308 (and ±inf) used to be cast to an integer bin index while far
  // outside its range — undefined behaviour. They must clamp in the double
  // domain first and land in the edge bins.
  Histogram h(0.0, 10.0, 10);
  h.add(1e308);
  h.add(-1e308);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.nan_count(), 0u);
}

TEST(Histogram, NanLandsInDedicatedBucket) {
  Histogram h(0.0, 10.0, 4);
  h.add(5.0);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::nan(""));
  EXPECT_EQ(h.nan_count(), 2u);
  EXPECT_EQ(h.total(), 3u);
  std::size_t binned = 0;
  for (std::size_t i = 0; i < h.bins(); ++i) binned += h.bin_count(i);
  EXPECT_EQ(binned + h.nan_count(), h.total());
}

TEST(Histogram, MergeAddsCountsAndChecksShape) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 5);
  a.add(1.0);
  a.add(std::numeric_limits<double>::quiet_NaN());
  b.add(1.5);
  b.add(9.9);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.bin_count(0), 2u);
  EXPECT_EQ(a.bin_count(4), 1u);
  EXPECT_EQ(a.nan_count(), 1u);
  Histogram other_shape(0.0, 10.0, 6);
  EXPECT_THROW(a.merge(other_shape), std::invalid_argument);
  Histogram other_range(0.0, 12.0, 5);
  EXPECT_THROW(a.merge(other_range), std::invalid_argument);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// --------------------------------------------------------------- table ----

TEST(Table, RendersAlignedColumns) {
  Table t("demo", {"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t("x", {"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Format, FixedAndSiAndPercent) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.256, 1), "25.6%");
  EXPECT_EQ(fmt_si(1500.0, 1), "1.5 k");
  EXPECT_EQ(fmt_si(0.002, 1), "2.0 m");
}

// ----------------------------------------------------------------- crc ----

TEST(Crc, Crc32KnownVector) {
  const char* s = "123456789";
  const auto crc = crc32_ieee(
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s), 9));
  EXPECT_EQ(crc, 0xCBF43926u);  // canonical check value
}

TEST(Crc, Crc32EmptyIsZero) {
  EXPECT_EQ(crc32_ieee({}), 0x00000000u);
}

TEST(Crc, Crc15DetectsChange) {
  std::uint8_t a[4] = {1, 2, 3, 4};
  std::uint8_t b[4] = {1, 2, 3, 5};
  EXPECT_NE(crc15_can(a), crc15_can(b));
  EXPECT_LT(crc15_can(a), 1u << 15);  // 15-bit result
}

TEST(Crc, Crc15Deterministic) {
  std::uint8_t a[8] = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4};
  EXPECT_EQ(crc15_can(a), crc15_can(a));
}

// --------------------------------------------------------- ring buffer ----

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.push(1));
  EXPECT_TRUE(rb.push(2));
  EXPECT_TRUE(rb.push(3));
  EXPECT_FALSE(rb.push(4));  // full
  EXPECT_EQ(rb.pop().value(), 1);
  EXPECT_TRUE(rb.push(4));
  EXPECT_EQ(rb.pop().value(), 2);
  EXPECT_EQ(rb.pop().value(), 3);
  EXPECT_EQ(rb.pop().value(), 4);
  EXPECT_FALSE(rb.pop().has_value());
}

TEST(RingBuffer, FrontAndClear) {
  RingBuffer<std::string> rb(2);
  EXPECT_THROW((void)rb.front(), std::out_of_range);
  ASSERT_TRUE(rb.push("x"));
  EXPECT_EQ(rb.front(), "x");
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.capacity(), 2u);
}

TEST(RingBuffer, ZeroCapacityRejected) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

// Property sweep: push/pop sequences preserve count invariants.
class RingBufferProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingBufferProperty, SizeNeverExceedsCapacity) {
  const std::size_t cap = GetParam();
  RingBuffer<int> rb(cap);
  Rng rng(cap);
  std::size_t expected = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng.bernoulli(0.6)) {
      if (rb.push(i)) ++expected;
    } else {
      if (rb.pop().has_value()) --expected;
    }
    EXPECT_EQ(rb.size(), expected);
    EXPECT_LE(rb.size(), cap);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingBufferProperty,
                         ::testing::Values(1, 2, 7, 64));

// The escaping rules of ev/util/json.h, spelled out per byte.
std::string expected_escape(int c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\t': return "\\t";
    default: break;
  }
  if (c < 0x20) return std::string("\\u00") + "01"[c >> 4] + "0123456789abcdef"[c & 15];
  return std::string(1, static_cast<char>(c));
}

// json_escape and write_json_escaped share one implementation; pin both to
// the escaping rules on every byte value and on runs around the escapes.
TEST(Json, EscapeAndStreamAgreeOnEveryByte) {
  std::string all;
  std::string all_escaped;
  for (int c = 0; c < 256; ++c) {
    const std::string one(1, static_cast<char>(c));
    const std::string want = expected_escape(c);
    EXPECT_EQ(ev::util::json_escape(one), want) << "byte " << c;
    std::ostringstream out;
    ev::util::write_json_escaped(out, one);
    EXPECT_EQ(out.str(), want) << "byte " << c;
    all += "ab" + one + "c";
    all_escaped += "ab" + want + "c";
  }
  std::ostringstream out;
  ev::util::write_json_escaped(out, all);
  EXPECT_EQ(out.str(), all_escaped);
  EXPECT_EQ(ev::util::json_escape(all), all_escaped);
  EXPECT_EQ(ev::util::json_escape(""), "");
  EXPECT_EQ(ev::util::json_escape("plain"), "plain");
}

}  // namespace

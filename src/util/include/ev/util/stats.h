/// \file stats.h
/// Streaming and batch statistics used by the benchmark harness and the
/// simulation trace analyses (latency/jitter percentiles, energy accounting).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace ev::util {

/// Welford streaming accumulator for mean/variance/min/max over a scalar
/// series. O(1) memory; suitable for long simulations.
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Folds \p other into this accumulator (parallel Welford / Chan's
  /// formula). The combination is symmetric: merge(A, B) and merge(B, A)
  /// produce bit-identical state, so order-independent aggregation (e.g.
  /// per-seed campaign shards) is deterministic for any shard count.
  void merge(const RunningStats& other) noexcept;

  /// Number of observations added so far.
  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  /// Arithmetic mean; 0 if empty.
  [[nodiscard]] double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance; 0 if fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  /// Sample standard deviation.
  [[nodiscard]] double stddev() const noexcept;
  /// Smallest observation; +inf if empty.
  [[nodiscard]] double min() const noexcept { return min_; }
  /// Largest observation; -inf if empty.
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Sum of all observations.
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  // Empty-state identities of min/max, so the documented "+inf/-inf if
  // empty" contract holds and merge() needs no empty special case.
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// What a SampleSeries holding the same samples would report, read from a
/// RunningStats alone. mean is sum()/count(), bit-identical to
/// SampleSeries::mean over the same samples added in the same order
/// (RunningStats::mean is Welford's running mean and may differ in the last
/// bit). Like SampleSeries, mean, min and max read 0 when empty, where
/// RunningStats keeps its +inf/-inf identities.
struct SeriesSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Reads \p stats as SeriesSummary describes.
[[nodiscard]] SeriesSummary summarize(const RunningStats& stats) noexcept;

/// Batch series that retains every sample, so order statistics
/// (percentiles) are available at O(n) memory. Meant for bounded runs that
/// need percentiles (benches, tests); long simulations record into a
/// RunningStats instead, as the bus and flow latency probes do.
class SampleSeries {
 public:
  /// Appends one sample.
  void add(double x);
  /// Number of samples.
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  /// Arithmetic mean; 0 if empty.
  [[nodiscard]] double mean() const noexcept;
  /// Minimum; 0 if empty.
  [[nodiscard]] double min() const noexcept;
  /// Maximum; 0 if empty.
  [[nodiscard]] double max() const noexcept;
  /// Linear-interpolated percentile, \p p in [0,100]; 0 if empty.
  [[nodiscard]] double percentile(double p) const;
  /// Read-only access to the raw samples in insertion order.
  [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  mutable std::vector<double> sorted_;  // lazily maintained sorted copy
  mutable bool sorted_valid_ = false;
  std::vector<double> samples_;
};

/// Equal-width histogram over [lo, hi); samples outside are clamped to the
/// boundary bins and NaN observations land in a dedicated counted bucket,
/// so bin_count(0..bins-1) + nan_count() == total(). Used to render latency
/// distributions in bench output.
class Histogram {
 public:
  /// Creates a histogram with \p bins equal-width buckets covering [lo, hi).
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds one observation.
  void add(double x) noexcept;
  /// Folds \p other's buckets into this histogram. Both must cover the same
  /// [lo, hi) range with the same bucket count; throws std::invalid_argument
  /// otherwise. Counter addition makes the merge order-independent.
  void merge(const Histogram& other);
  /// Count in bucket \p i.
  [[nodiscard]] std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  /// Number of buckets.
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  /// Lower edge of the covered range.
  [[nodiscard]] double lo() const noexcept { return lo_; }
  /// Upper edge of the covered range.
  [[nodiscard]] double hi() const noexcept { return hi_; }
  /// Total observations added (including NaN observations).
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  /// NaN observations, counted apart from the value buckets.
  [[nodiscard]] std::size_t nan_count() const noexcept { return nan_; }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t nan_ = 0;
};

}  // namespace ev::util

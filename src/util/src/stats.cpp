#include "ev/util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace ev::util {

void RunningStats::add(double x) noexcept {
  // min_/max_ start at +inf/-inf, so the first observation needs no branch.
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  // Weighted-mean form of Chan's parallel update: every subexpression is
  // symmetric in (a, b) up to IEEE-commutative ops, so merge(A, B) and
  // merge(B, A) land on bit-identical state.
  mean_ = (na * mean_ + nb * other.mean_) / (na + nb);
  m2_ = (m2_ + other.m2_) + delta * delta * (na * nb / (na + nb));
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

SeriesSummary summarize(const RunningStats& stats) noexcept {
  if (stats.count() == 0) return {};
  return {stats.count(), stats.sum() / static_cast<double>(stats.count()), stats.min(),
          stats.max()};
}

void SampleSeries::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

double SampleSeries::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSeries::min() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSeries::max() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSeries::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + (sorted_[hi] - sorted_[lo]) * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be positive");
  counts_.assign(bins, 0);
}

void Histogram::add(double x) noexcept {
  ++total_;
  if (std::isnan(x)) {
    ++nan_;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  // Clamp in the double domain: converting a value outside the target
  // integer's range (e.g. ±1e308, ±inf) to an integer is undefined behavior.
  const double pos = std::clamp((x - lo_) / width, 0.0,
                                static_cast<double>(counts_.size() - 1));
  ++counts_[static_cast<std::size_t>(pos)];
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ || counts_.size() != other.counts_.size())
    throw std::invalid_argument("Histogram::merge: incompatible ranges or bin counts");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  nan_ += other.nan_;
}

}  // namespace ev::util

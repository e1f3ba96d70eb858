#include "ev/analysis/prob.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace ev::analysis {

double poisson_pmf(double mean, int k) {
  if (k < 0) return 0.0;
  if (mean <= 0.0) return k == 0 ? 1.0 : 0.0;
  // Iterative pmf(k) = pmf(k-1) * mean / k keeps the evaluation exact-ish
  // without factorials; k stays small (<= the tolerable-error cap).
  double pmf = std::exp(-mean);
  for (int j = 0; j < k; ++j) pmf *= mean / static_cast<double>(j + 1);
  return pmf;
}

double poisson_tail_above(double mean, int k) {
  if (k < 0) return 1.0;
  double cum = 0.0;
  for (int j = 0; j <= k; ++j) cum += poisson_pmf(mean, j);
  return std::clamp(1.0 - cum, 0.0, 1.0);
}

double binomial_pmf(int n, double p, int k) {
  if (k < 0 || k > n || n < 0) return 0.0;
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  // pmf(k) = pmf(k-1) * (n-k+1)/k * p/(1-p), seeded with (1-p)^n.
  double pmf = std::pow(1.0 - p, n);
  for (int j = 0; j < k; ++j)
    pmf *= static_cast<double>(n - j) / static_cast<double>(j + 1) * p / (1.0 - p);
  return pmf;
}

double combined_tail_above(double mean, int n, double p, int k) {
  if (k < 0) return 1.0;
  // Each pmf once per j instead of once per term; the sum below runs in the
  // same (total, a) order as the direct convolution, so it keeps its bits.
  std::vector<double> pois(static_cast<std::size_t>(k) + 1);
  std::vector<double> bin(pois.size());
  for (int j = 0; j <= k; ++j) {
    pois[j] = poisson_pmf(mean, j);
    bin[j] = binomial_pmf(n, p, j);
  }
  double cum = 0.0;
  for (int total = 0; total <= k; ++total)
    for (int a = 0; a <= total; ++a) cum += pois[a] * bin[total - a];
  return std::clamp(1.0 - cum, 0.0, 1.0);
}

std::vector<network::CanErrorModel> derive_error_models(const VehicleModel& model) {
  std::vector<network::CanErrorModel> models(model.buses.size());
  for (const core::PlannedFault& fault : model.faults) {
    if (fault.error || core::fault_target_kind(fault.event.kind) !=
                           core::FaultTargetKind::kCanBus)
      continue;
    core::merge_error_event(fault.event, models[fault.index]);
  }
  return models;
}

ProbabilisticCanAnalyzer::ProbabilisticCanAnalyzer(VehicleModel model)
    : evaluator_(std::move(model)) {
  evaluator_.set_probabilistic(true);
}

Report ProbabilisticCanAnalyzer::report() { return evaluator_.report(); }

const ProbOutcome& ProbabilisticCanAnalyzer::bus_outcome(std::size_t bus) {
  evaluator_.evaluate();
  return evaluator_.prob_outcome(bus);
}

Report analyze_probabilistic(const VehicleModel& model) {
  ProbabilisticCanAnalyzer analyzer(model);
  return analyzer.report();
}

Report analyze_probabilistic_scenario(const config::ScenarioSpec& spec) {
  return analyze_probabilistic(extract_model(spec));
}

}  // namespace ev::analysis

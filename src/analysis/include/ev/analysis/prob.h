/// \file prob.h
/// Probabilistic fault-aware CAN timing analysis (E24). Where the
/// deterministic pass answers "can this frame miss its deadline", this pass
/// answers "how often": given a per-bus stochastic error model derived from
/// the scenario's network-fault specs (bus.error_rate = Poisson errors/s,
/// bus.error_prob = Bernoulli per-attempt probability), it computes an
/// upper bound on every CAN frame's deadline-miss probability in the style
/// of Broster et al. (2002):
///
///   R(k)   — the worst-case response time with k error recoveries of
///            O = 31*tau_bit + max_j C_j each convolved into the busy
///            period (the fault-aware can_response_times overload);
///   k_max  — the largest k with R(k) <= period (the deadline);
///   P(miss) <= P(more than k_max errors strike the frame's level-i
///            window) — a Poisson tail, a binomial tail over the attempts
///            that fit the window, or their convolution when both channels
///            are armed.
///
/// At error rate zero the ladder stops at the deterministic fixed point,
/// k_max is never consulted, and the rendered report is byte-identical to
/// the deterministic analyzer — the E24 degeneracy contract. Experiment
/// bench_e24_prob_timing cross-validates the analytic probabilities against
/// observed miss frequencies from seeded fault-injection campaigns, the E19
/// static-vs-sim invariant lifted from bounds to distributions.
///
/// Rules added to the report (all info unless noted):
///   prob.bus_error    the armed error model of one CAN bus
///   prob.frame_miss   per-frame deadline-miss probability upper bound
///   prob.unsupported_target (error, wiring pass) an error-model fault spec
///                     targets a bus that is not CAN
#pragma once

#include <cstddef>
#include <vector>

#include "ev/analysis/diagnostics.h"
#include "ev/analysis/fitness.h"
#include "ev/analysis/model.h"
#include "ev/config/scenario.h"

namespace ev::analysis {

// --- math kernel (exposed for tests and the E24 bench) ----------------------

/// P(N = k) for N ~ Poisson(mean). Exact for mean == 0 (point mass at 0).
[[nodiscard]] double poisson_pmf(double mean, int k);

/// P(N > k) for N ~ Poisson(mean): 1 - sum of the pmf up to k, clamped to
/// [0, 1]. Monotone in mean, tail mass fully accounted.
[[nodiscard]] double poisson_tail_above(double mean, int k);

/// P(X = k) for X ~ Binomial(n, p), exact at the p in {0, 1} edges.
[[nodiscard]] double binomial_pmf(int n, double p, int k);

/// P(X + Y > k) for independent X ~ Poisson(mean) and Y ~ Binomial(n, p):
/// the convolved complementary mass, clamped to [0, 1]. Degenerates to the
/// single-channel tails when mean == 0 or n == 0 / p == 0. Both pmfs are
/// tabled once for 0..k, so a call costs O(k²) arithmetic and at most
/// 2(k+1) exp/pow calls; the sum runs in the (total, a) order of the direct
/// O(k³) convolution and returns the same bits.
[[nodiscard]] double combined_tail_above(double mean, int n, double p, int k);

// --- error-model derivation -------------------------------------------------

/// Per-bus error models from the model's fault plan, indexed like
/// VehicleModel::buses: every bus.error_rate / bus.error_prob event folded
/// in by core::merge_error_event, the rule the simulator arms with (rates
/// superpose, probabilities compose as 1 - prod(1 - p_i)). Injection times
/// are ignored — the analysis assumes the model active for the whole
/// mission, the worst case. Events whose target did not resolve are
/// skipped; the wiring pass reports them. All-zero models are unarmed.
[[nodiscard]] std::vector<network::CanErrorModel> derive_error_models(
    const VehicleModel& model);

// --- the analyzer -----------------------------------------------------------

/// The probabilistic analyzer: one FitnessEvaluator with the probabilistic
/// pass armed, so the per-bus ProbOutcomes are memoized and re-evaluated
/// through the same dirty-closure machinery the synthesizer uses.
class ProbabilisticCanAnalyzer {
 public:
  explicit ProbabilisticCanAnalyzer(VehicleModel model);

  /// Full report: every deterministic diagnostic plus the prob.* rules.
  /// Byte-identical to analyze() when no error model is armed.
  [[nodiscard]] Report report();

  /// Settles (if dirty) and returns the probabilistic outcome of one bus.
  [[nodiscard]] const ProbOutcome& bus_outcome(std::size_t bus);

  /// The per-bus error models derived from the scenario fault plan.
  [[nodiscard]] const std::vector<network::CanErrorModel>& error_models()
      const noexcept {
    return evaluator_.error_models();
  }

  /// The underlying incremental evaluator (candidate moves, cross-check).
  [[nodiscard]] FitnessEvaluator& evaluator() noexcept { return evaluator_; }

 private:
  FitnessEvaluator evaluator_;
};

/// Probabilistic counterpart of analyze(): deterministic diagnostics plus
/// prob.* rules, byte-identical to analyze() when no error model is armed.
[[nodiscard]] Report analyze_probabilistic(const VehicleModel& model);

/// Convenience: extract_model + analyze_probabilistic (`evsys check --prob`).
[[nodiscard]] Report analyze_probabilistic_scenario(const config::ScenarioSpec& spec);

}  // namespace ev::analysis

// Unit tests for the probabilistic fault-aware CAN timing analysis (E24):
// the Poisson/binomial math kernel (mass accounting, clamps, edge cases),
// error-model derivation from fault specs, the zero-rate degeneracy to the
// deterministic analyzer (byte-identical report), monotonicity in the error
// rate, the prob.* wiring lints, and the memoized probabilistic outcomes
// inside the incremental FitnessEvaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ev/analysis/analyzer.h"
#include "ev/analysis/diagnostics.h"
#include "ev/analysis/fitness.h"
#include "ev/analysis/model.h"
#include "ev/analysis/prob.h"
#include "ev/config/scenario.h"

namespace {

using namespace ev::analysis;
using ev::config::FaultEventSpec;
using ev::config::FaultKind;
using ev::config::ScenarioSpec;

ScenarioSpec clean_spec() {
  ScenarioSpec spec;
  spec.name = "clean";
  spec.subsystems.obs = true;
  spec.subsystems.health = true;
  spec.subsystems.security = true;
  return spec;
}

ScenarioSpec spec_with_fault(FaultKind kind, const std::string& target, double value) {
  ScenarioSpec spec = clean_spec();
  spec.subsystems.faults = true;
  spec.faults.push_back(FaultEventSpec{0.0, kind, target, value});
  return spec;
}

std::string report_text(const Report& report) {
  std::ostringstream out;
  write_report_json(report, out);
  return out.str();
}

// ------------------------------------------------------------ math kernel ----

TEST(ProbKernel, PoissonPmfEdgeCases) {
  EXPECT_EQ(poisson_pmf(0.0, 0), 1.0);  // point mass at zero
  EXPECT_EQ(poisson_pmf(0.0, 1), 0.0);
  EXPECT_EQ(poisson_pmf(3.0, -1), 0.0);
  EXPECT_NEAR(poisson_pmf(2.0, 0), std::exp(-2.0), 1e-15);
  EXPECT_NEAR(poisson_pmf(2.0, 3), std::exp(-2.0) * 8.0 / 6.0, 1e-15);
}

TEST(ProbKernel, PoissonMassFullyAccounted) {
  // pmf(0..K) + tail_above(K) == 1: no probability mass leaks into the tail.
  for (const double mean : {0.0, 0.3, 1.0, 4.5, 20.0}) {
    for (const int cut : {0, 1, 5, 30}) {
      double mass = 0.0;
      for (int k = 0; k <= cut; ++k) mass += poisson_pmf(mean, k);
      EXPECT_NEAR(mass + poisson_tail_above(mean, cut), 1.0, 1e-12)
          << "mean " << mean << " cut " << cut;
    }
  }
}

TEST(ProbKernel, PoissonTailMonotoneAndClamped) {
  EXPECT_EQ(poisson_tail_above(2.0, -1), 1.0);
  EXPECT_EQ(poisson_tail_above(0.0, 0), 0.0);
  // Non-decreasing in the mean, non-increasing in the cutoff.
  double prev = 0.0;
  for (const double mean : {0.1, 0.5, 1.0, 2.0, 8.0}) {
    const double tail = poisson_tail_above(mean, 3);
    EXPECT_GE(tail, prev);
    prev = tail;
  }
  for (int k = 0; k < 10; ++k)
    EXPECT_GE(poisson_tail_above(3.0, k), poisson_tail_above(3.0, k + 1));
}

TEST(ProbKernel, BinomialPmfEdgeCases) {
  EXPECT_EQ(binomial_pmf(5, 0.0, 0), 1.0);
  EXPECT_EQ(binomial_pmf(5, 0.0, 1), 0.0);
  EXPECT_EQ(binomial_pmf(5, 1.0, 5), 1.0);
  EXPECT_EQ(binomial_pmf(5, 1.0, 4), 0.0);
  EXPECT_EQ(binomial_pmf(5, 0.5, 6), 0.0);
  EXPECT_EQ(binomial_pmf(5, 0.5, -1), 0.0);
  double mass = 0.0;
  for (int k = 0; k <= 7; ++k) mass += binomial_pmf(7, 0.3, k);
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(ProbKernel, CombinedTailDegeneratesToSingleChannels) {
  for (const int k : {0, 2, 5}) {
    EXPECT_NEAR(combined_tail_above(2.5, 0, 0.0, k), poisson_tail_above(2.5, k),
                1e-15);
    double binom_tail = 1.0;
    for (int j = 0; j <= k; ++j) binom_tail -= binomial_pmf(12, 0.2, j);
    EXPECT_NEAR(combined_tail_above(0.0, 12, 0.2, k), binom_tail, 1e-12);
  }
  // Convolving a second channel in can only add miss mass.
  EXPECT_GE(combined_tail_above(2.5, 12, 0.2, 3), poisson_tail_above(2.5, 3));
  EXPECT_LE(combined_tail_above(2.5, 12, 0.2, 3), 1.0);
}

// The direct convolution combined_tail_above used to evaluate: both pmfs
// recomputed for every (total, a) pair, O(k^3). Kept here as the oracle of
// the tabled one.
double combined_tail_by_direct_convolution(double mean, int n, double p, int k) {
  if (k < 0) return 1.0;
  double cum = 0.0;
  for (int total = 0; total <= k; ++total)
    for (int a = 0; a <= total; ++a)
      cum += poisson_pmf(mean, a) * binomial_pmf(n, p, total - a);
  return std::clamp(1.0 - cum, 0.0, 1.0);
}

TEST(ProbKernel, CombinedTailMatchesDirectConvolution) {
  for (const double mean : {0.0, 1e-6, 0.3, 2.0, 40.0})
    for (const int n : {0, 1, 7, 64})
      for (const double p : {0.0, 1e-4, 0.3, 1.0})
        for (const int k : {-1, 0, 1, 5, 64})
          EXPECT_EQ(combined_tail_above(mean, n, p, k),
                    combined_tail_by_direct_convolution(mean, n, p, k))
              << "mean " << mean << " n " << n << " p " << p << " k " << k;
}

// -------------------------------------------------- error-model derivation ----

TEST(ProbDerive, RatesSuperposeAndProbsCompose) {
  ScenarioSpec spec = clean_spec();
  spec.subsystems.faults = true;
  spec.faults = {
      FaultEventSpec{0.0, FaultKind::kBusErrorRate, "safety_can", 100.0},
      FaultEventSpec{5.0, FaultKind::kBusErrorRate, "safety_can", 50.0},
      FaultEventSpec{0.0, FaultKind::kBusErrorProb, "comfort_can", 0.5},
      FaultEventSpec{1.0, FaultKind::kBusErrorProb, "comfort_can", 0.5},
      FaultEventSpec{0.0, FaultKind::kBusDrop, "safety_can", 3.0},  // not an error model
  };
  const VehicleModel model = extract_model(spec);
  const std::vector<ev::network::CanErrorModel> models = derive_error_models(model);
  double rate = 0.0, prob = 0.0;
  for (std::size_t b = 0; b < model.buses.size(); ++b) {
    if (model.buses[b].scenario_name == "safety_can") {
      rate = models[b].poisson_rate_per_s;
      EXPECT_EQ(models[b].per_attempt_prob, 0.0);
    }
    if (model.buses[b].scenario_name == "comfort_can")
      prob = models[b].per_attempt_prob;
  }
  EXPECT_EQ(rate, 150.0);        // independent Poisson processes superpose
  EXPECT_NEAR(prob, 0.75, 1e-15);  // 1 - (1 - 0.5)^2
}

// -------------------------------------------------------- degeneracy at 0 ----

TEST(ProbAnalyzer, ZeroRateReportByteIdenticalToDeterministic) {
  // Explicit zero-valued error models: armed() is false, nothing renders.
  ScenarioSpec spec = clean_spec();
  spec.subsystems.faults = true;
  spec.faults = {FaultEventSpec{0.0, FaultKind::kBusErrorRate, "safety_can", 0.0},
                 FaultEventSpec{0.0, FaultKind::kBusErrorProb, "comfort_can", 0.0}};
  EXPECT_EQ(report_text(analyze_probabilistic_scenario(spec)),
            report_text(analyze_scenario(spec)));
  // No fault plan at all degenerates the same way.
  EXPECT_EQ(report_text(analyze_probabilistic_scenario(clean_spec())),
            report_text(analyze_scenario(clean_spec())));
}

TEST(ProbAnalyzer, RerunsAreByteIdentical) {
  const ScenarioSpec spec =
      spec_with_fault(FaultKind::kBusErrorRate, "safety_can", 250.0);
  EXPECT_EQ(report_text(analyze_probabilistic_scenario(spec)),
            report_text(analyze_probabilistic_scenario(spec)));
}

// ------------------------------------------------------------- armed rules ----

TEST(ProbAnalyzer, ArmedBusRendersProbRules) {
  const ScenarioSpec spec =
      spec_with_fault(FaultKind::kBusErrorRate, "safety_can", 250.0);
  const Report report = analyze_probabilistic_scenario(spec);
  const Diagnostic* bus_error = report.find("prob.bus_error", "safety_can");
  ASSERT_NE(bus_error, nullptr);
  EXPECT_EQ(bus_error->severity, Severity::kInfo);
  EXPECT_EQ(bus_error->bound, 250.0);
  // Every safety_can frame gets a miss bound; the unarmed buses get none.
  std::size_t safety_frames = 0;
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule_id == "prob.frame_miss") {
      EXPECT_EQ(d.subject.rfind("safety_can/", 0), 0u) << d.subject;
      EXPECT_GE(d.bound, 0.0);
      EXPECT_LE(d.bound, 1.0);
      ++safety_frames;
    }
  EXPECT_GT(safety_frames, 0u);
}

TEST(ProbAnalyzer, MissProbabilityMonotoneInErrorRate) {
  // Doubling the Poisson rate can only leave each frame's bound in place or
  // raise it (stress the bus so the bounds are away from both 0 and 1).
  std::vector<double> previous;
  for (const double rate : {100.0, 300.0, 900.0}) {
    ScenarioSpec spec = spec_with_fault(FaultKind::kBusErrorRate, "safety_can", rate);
    spec.network.can_bit_rate = 125e3;
    const VehicleModel model = extract_model(spec);
    ProbabilisticCanAnalyzer analyzer(model);
    std::vector<double> bounds;
    for (std::size_t b = 0; b < model.buses.size(); ++b)
      for (const FrameMissBound& fmb : analyzer.bus_outcome(b).frames)
        bounds.push_back(fmb.miss_probability);
    ASSERT_FALSE(bounds.empty());
    if (!previous.empty()) {
      ASSERT_EQ(bounds.size(), previous.size());
      for (std::size_t i = 0; i < bounds.size(); ++i)
        EXPECT_GE(bounds[i], previous[i] - 1e-15) << "frame " << i;
    }
    previous = bounds;
  }
}

// ------------------------------------------------------------ wiring lints ----

TEST(ProbWiring, UnknownBusTargetIsError) {
  const ScenarioSpec spec =
      spec_with_fault(FaultKind::kBusErrorRate, "no_such_bus", 100.0);
  const Report report = analyze_probabilistic_scenario(spec);
  const Diagnostic* d = report.find("fault.unknown_target", "fault[0]");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(exit_code_for(report), 1);
}

TEST(ProbWiring, NonCanBusTargetIsError) {
  const ScenarioSpec spec =
      spec_with_fault(FaultKind::kBusErrorProb, "body_lin", 0.1);
  const Report report = analyze_probabilistic_scenario(spec);
  const Diagnostic* d = report.find("prob.unsupported_target", "fault[0]");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  // The deterministic analyzer lints the same structure — the rule fires
  // without --prob too (it is a wiring check, not a probabilistic pass).
  EXPECT_NE(analyze_scenario(spec).find("prob.unsupported_target", "fault[0]"),
            nullptr);
}

// --------------------------------------------------- incremental evaluator ----

TEST(ProbFitness, IncrementalOutcomesSurviveMovesUnderCrossCheck) {
  ScenarioSpec spec = spec_with_fault(FaultKind::kBusErrorRate, "safety_can", 300.0);
  spec.network.can_bit_rate = 125e3;
  const VehicleModel model = extract_model(spec);
  ProbabilisticCanAnalyzer analyzer(model);
  FitnessEvaluator& evaluator = analyzer.evaluator();
  // Every evaluate() recomputes from scratch and throws on any divergence
  // between the memoized outcomes (including ProbOutcomes) and fresh ones.
  evaluator.set_cross_check(true);
  (void)evaluator.evaluate();

  // A bit-rate change dirties every CAN bus: the armed bus's miss bounds
  // must be recomputed against the faster wire.
  std::vector<double> before;
  for (std::size_t b = 0; b < model.buses.size(); ++b)
    for (const FrameMissBound& fmb : analyzer.bus_outcome(b).frames)
      before.push_back(fmb.miss_probability);
  evaluator.set_can_bit_rate(500e3);
  EXPECT_NO_THROW((void)evaluator.evaluate());
  std::vector<double> after;
  for (std::size_t b = 0; b < model.buses.size(); ++b)
    for (const FrameMissBound& fmb : analyzer.bus_outcome(b).frames)
      after.push_back(fmb.miss_probability);
  ASSERT_EQ(before.size(), after.size());
  // 4x the bit rate shrinks every transmission: no bound may get worse.
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_LE(after[i], before[i] + 1e-15);

  // Frame renumbering on the armed bus re-runs the ladder too; the
  // cross-check inside evaluate() asserts the memoized result matches a
  // from-scratch evaluation byte for byte.
  for (std::size_t f = 0; f < model.frames.size(); ++f)
    if (evaluator.model().frames[f].id_mutable &&
        evaluator.model().buses[evaluator.model().frames[f].bus].scenario_name ==
            "safety_can") {
      evaluator.renumber_frame(f, 0x7f0);
      break;
    }
  EXPECT_NO_THROW((void)evaluator.evaluate());
}

TEST(ProbFitness, ReportMatchesBatchAnalyzerAfterEnablingLate) {
  const ScenarioSpec spec =
      spec_with_fault(FaultKind::kBusErrorProb, "comfort_can", 0.02);
  const VehicleModel model = extract_model(spec);
  // Evaluate deterministically first, then arm the probabilistic pass: the
  // memoized report must still match a from-scratch probabilistic analysis.
  FitnessEvaluator evaluator(model);
  (void)evaluator.evaluate();
  evaluator.set_probabilistic(true);
  EXPECT_EQ(report_text(evaluator.report()),
            report_text(analyze_probabilistic(model)));
}

}  // namespace

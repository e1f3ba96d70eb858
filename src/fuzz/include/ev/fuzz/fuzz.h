/// \file fuzz.h
/// Seeded differential-testing harness over the whole stack (E25). A
/// deterministic ScenarioGenerator derives valid-by-construction
/// ScenarioSpecs — randomized drive missions, pack/BMS/network/timing
/// knobs, `arch.*` deployment overrides mutated against the extracted
/// model (so every override is feasible), and kind-valid fault plans
/// including the stochastic bus error models — and every spec runs the
/// full pipeline:
///
///   1. text round trip: to_text → from_text → exact spec equality,
///   2. `evsys check` as a cheap pre-filter (error specs are rejected,
///      never simulated — that is a legitimate generator outcome, not a
///      failure),
///   3. co-simulation for checked-clean specs,
///   4. oracles: conservation invariants on the energy/telemetry ledger,
///      the E19 contract (no observed maximum exceeds its static bound,
///      on surfaces no fault can perturb), and the E24 contract (analytic
///      P(miss) dominates the observed miss frequency on every armed CAN
///      bus) — both through the shared ev/analysis/oracle.h.
///
/// Failures are minimized by a greedy delta-shrinker over generator
/// choices and dumped as reproducer `.scn` files. The report is a pure
/// function of (seed, count): byte-identical for any --jobs value.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "ev/config/fleet.h"
#include "ev/config/scenario.h"

namespace ev::fuzz {

/// Derives specs deterministically from (root seed, index). Equal
/// arguments produce equal specs on every platform; every spec passes
/// validate() and survives model extraction by construction.
class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(std::uint64_t root_seed) noexcept
      : root_seed_(root_seed) {}

  /// The index-th scenario of this seed's stream.
  [[nodiscard]] config::ScenarioSpec scenario(int index) const;
  /// The index-th fleet spec of this seed's stream (round-trip property
  /// coverage for the second `key = value` parser).
  [[nodiscard]] config::FleetSpec fleet(int index) const;

  [[nodiscard]] std::uint64_t root_seed() const noexcept { return root_seed_; }

 private:
  std::uint64_t root_seed_ = 1;
};

/// How one generated scenario fared.
enum class Verdict : std::uint8_t {
  kRejected,   ///< Static pre-filter found errors; not simulated.
  kSimulated,  ///< Simulated, every oracle upheld.
  kFailed,     ///< Some pipeline stage or oracle failed (see FailureKind).
};

/// What failed, when something did. The shrinker minimizes while
/// preserving this kind, so a reproducer still fails the same way.
enum class FailureKind : std::uint8_t {
  kNone,
  kRoundTrip,       ///< to_text → from_text did not reproduce the spec.
  kCheckThrow,      ///< Model extraction / analysis threw.
  kSimThrow,        ///< The co-simulation threw.
  kConservation,    ///< Energy/telemetry ledger invariant violated.
  kBoundViolation,  ///< An observed maximum exceeded its static bound.
  kProbViolation,   ///< Observed miss frequency exceeded analytic P(miss).
};

[[nodiscard]] const char* to_string(Verdict verdict) noexcept;
[[nodiscard]] const char* to_string(FailureKind kind) noexcept;

/// Pipeline outcome of one scenario.
struct ScenarioOutcome {
  int index = 0;
  Verdict verdict = Verdict::kRejected;
  FailureKind failure = FailureKind::kNone;
  std::string detail;              ///< Deterministic description (failures).
  std::size_t check_errors = 0;    ///< Pre-filter error diagnostics.
  std::size_t check_warnings = 0;  ///< Pre-filter warning diagnostics.
  std::size_t bound_comparisons = 0;  ///< E19 bound-vs-observed pairs.
  std::size_t prob_comparisons = 0;   ///< E24 P(miss)-vs-frequency pairs.
  std::uint32_t result_digest = 0;    ///< CRC-32 of the run's result JSON.
  config::ScenarioSpec spec;          ///< Minimized when failed.
  std::string reproducer;             ///< Dumped file name, when any.
};

struct FuzzOptions {
  std::uint64_t seed = 1;
  int count = 100;
  int jobs = 1;
  bool shrink = true;           ///< Minimize failing specs before reporting.
  int shrink_budget = 48;       ///< Max pipeline re-evaluations per failure.
  std::string reproducer_dir;   ///< Dump minimized failures here (optional).
  double prob_send_s = 8.0;     ///< Send window of the prob-oracle testbed.
};

/// Everything one fuzz campaign produced. A pure function of
/// (options.seed, options.count) — jobs only changes wall time.
struct FuzzResult {
  std::uint64_t seed = 1;
  int count = 0;
  std::vector<ScenarioOutcome> scenarios;
  int fleets_generated = 0;
  std::vector<int> fleet_round_trip_failures;  ///< Failing fleet indexes.

  /// Failed scenarios + fleet round-trip mismatches.
  [[nodiscard]] std::size_t failures() const noexcept;
};

/// Runs stages 1-4 on one spec. No shrinking, no file I/O; index is left 0.
[[nodiscard]] ScenarioOutcome evaluate_scenario(const config::ScenarioSpec& spec,
                                                double prob_send_s = 8.0);

/// Greedy delta-shrinker: repeatedly applies simplifying edits (drop a
/// fault, clear an arch section, reset a section to defaults, shorten the
/// mission) and keeps an edit iff \p still_fails holds on the edited spec,
/// until a fixpoint or \p max_evals predicate evaluations. Every candidate
/// passes validate() before the predicate sees it.
[[nodiscard]] config::ScenarioSpec shrink_spec(
    const config::ScenarioSpec& spec,
    const std::function<bool(const config::ScenarioSpec&)>& still_fails,
    int max_evals);

/// The campaign: generate, fan out on util::parallel_for, fold in index
/// order, shrink + dump reproducers for failures.
[[nodiscard]] FuzzResult run_fuzz(const FuzzOptions& options);

/// Renders the deterministic campaign report (no wall times, no job
/// counts; doubles in shortest round-trippable form, fixed key order).
void write_fuzz_json(const FuzzResult& result, std::ostream& out);
[[nodiscard]] std::string fuzz_json(const FuzzResult& result);

}  // namespace ev::fuzz

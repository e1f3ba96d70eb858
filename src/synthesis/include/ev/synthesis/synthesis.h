/// \file synthesis.h
/// Design-space synthesizer: the inverse of `evsys check`. Where check maps
/// a scenario to diagnostics, synthesize maps a (possibly infeasible)
/// scenario to a repaired and optimized one, by searching the architecture
/// coordinates ArchSpec exposes — frame placement across the five Fig. 1
/// buses, CAN identifier (= priority) assignment, FlexRay static-slot
/// permutation, cockpit partition windows — plus the CAN bit-rate and
/// load-scale knobs. The search is seeded and fully deterministic: the same
/// spec, seed, and iteration budget give a byte-identical result. It runs
/// on the calling thread, scoring each round's candidates in index order.
/// Fitness comes from the incremental analysis::FitnessEvaluator,
/// so a synthesized design is feasible exactly when `evsys check` exits 0
/// on it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ev/analysis/fitness.h"
#include "ev/config/scenario.h"

namespace ev::synthesis {

/// Search knobs.
struct SynthesisOptions {
  std::uint64_t seed = 1;     ///< Seed of the search RNG.
  int iters = 200;            ///< Annealing rounds (each evaluates a batch).
  int jobs = 1;               ///< Ignored: the search runs on one thread;
                              ///< kept so existing callers still compile.
  bool cross_check = false;   ///< Full-recompute check after every accept.
};

/// One point of the quality trade-off surface (larger slack is better,
/// smaller busload / deployment are better).
struct ParetoPoint {
  analysis::Fitness fitness;
  bool accepted = false;  ///< Whether the search moved to this design.

  friend bool operator==(const ParetoPoint&, const ParetoPoint&) = default;
};

/// Everything one synthesize() run produced.
struct SynthesisResult {
  config::ScenarioSpec spec;   ///< The synthesized (repaired) scenario.
  analysis::Fitness fitness;   ///< Its evaluated fitness.
  bool feasible = false;       ///< fitness.feasible(): check would exit 0.
  std::uint64_t seed = 0;      ///< Seed the search ran with.
  int iters = 0;               ///< Annealing rounds the search ran.
  double load_scale = 0.0;     ///< Capacity the ladder settled on.
  std::size_t ladder_steps = 0;      ///< Load-ladder rungs evaluated.
  std::uint64_t moves_evaluated = 0; ///< Candidate designs scored.
  std::uint64_t moves_accepted = 0;  ///< Moves the annealer took.
  std::uint64_t bus_pass_evals = 0;  ///< Incremental single-bus passes spent.
  std::vector<ParetoPoint> pareto;   ///< Non-dominated feasible points, in
                                     ///< slack-descending order.
};

/// Synthesizes a feasible architecture for \p spec (which must validate()).
/// Phase A repairs structure along a descending load ladder until the
/// design passes every check; phase B anneals frame placement, priorities,
/// slots, and windows to improve worst-case slack and busload. Throws
/// std::logic_error if the internal spec/evaluator mirror ever diverges
/// (the synthesized spec is re-extracted and cross-checked before return).
[[nodiscard]] SynthesisResult synthesize(const config::ScenarioSpec& spec,
                                         const SynthesisOptions& options);

/// Renders the deterministic synthesis report JSON (no timing —
/// byte-identical across same-seed reruns).
void write_synthesis_json(const SynthesisResult& result, std::ostream& out);

// --- building blocks (exposed for unit tests) -------------------------------

/// Audsley-style lowest-priority-first CAN identifier assignment for the
/// frames of \p bus: reuses the bus's existing id pool, hands the largest
/// (lowest-priority) id to a frame that is schedulable there, and recurses
/// upward. Returns wire ids by frame index (only the frames on the bus).
/// Frames the caller may not renumber never appear (the evaluator's
/// id_mutable flag gates them); release jitters are taken from the
/// evaluator's settled bounds.
[[nodiscard]] std::map<std::size_t, std::uint32_t> assign_can_ids(
    analysis::FitnessEvaluator& evaluator, std::size_t bus);

/// Rate-monotonic FlexRay static-slot construction: shorter-period frames
/// get earlier slots (ties by id). Returns the full id -> slot map over the
/// same ids the bus's current slot table owns.
[[nodiscard]] std::map<std::uint32_t, std::size_t> rm_fr_slots(
    const analysis::VehicleModel& model, std::size_t bus);

/// First-fit-decreasing partition window packing: each partition's budget
/// becomes its runnable demand (at least 1 us), windows ordered by
/// decreasing budget (ties by name). Returns (partition, budget) in window
/// order, or an empty vector when the demands cannot fit the major frame
/// (the caller keeps the current plan — the rollback path).
[[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> ffd_partition_windows(
    const analysis::VehicleModel& model);

/// True when \p a dominates \p b (no worse in every objective, better in at
/// least one) over (worst_slack_us max, peak_busload min, deployment min).
[[nodiscard]] bool dominates(const analysis::Fitness& a, const analysis::Fitness& b);

/// The scalar annealing energy (lower is better): feasibility violations
/// dominate, then slack, busload, and deployment in lexicographic-ish
/// weighting.
[[nodiscard]] double energy(const analysis::Fitness& fitness);

}  // namespace ev::synthesis

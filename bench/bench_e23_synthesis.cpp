// Experiment E23: the design-space synthesizer and its incremental fitness
// core. Two claims are measured. First, the incremental FitnessEvaluator
// must make candidate evaluation cheap: re-evaluating after one architecture
// move (a CAN id swap, a frame re-placement, a FlexRay slot swap) has to be
// at least ~5x faster than the full re-analysis `evsys check` performs,
// while rendering byte-identical reports — otherwise the annealer is just a
// slow way to call the analyzer. Second, synthesized designs must be sound
// end to end: for a seed ladder of `evsys synthesize` runs over the
// overloaded fixture, every emitted scenario must pass static analysis
// cleanly AND, when actually simulated, every observed maximum must respect
// the synthesized design's static bounds (the E19 invariant, now applied to
// machine-generated architectures). Any violation fails the binary.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ev/analysis/analyzer.h"
#include "ev/analysis/fitness.h"
#include "ev/analysis/model.h"
#include "ev/analysis/oracle.h"
#include "ev/config/scenario.h"
#include "ev/core/scenario.h"
#include "ev/synthesis/synthesis.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using ev::analysis::FitnessEvaluator;
using ev::analysis::Report;
using ev::config::ScenarioSpec;

// tests/data/overloaded.scn: 20x nominal traffic, every subsystem on.
ScenarioSpec overloaded_spec() {
  ScenarioSpec spec;
  spec.name = "overloaded";
  spec.subsystems.obs = true;
  spec.subsystems.health = true;
  spec.subsystems.security = true;
  spec.network.load_scale = 20.0;
  return spec;
}

ScenarioSpec nominal_spec() {
  ScenarioSpec spec;
  spec.name = "e23-nominal";
  spec.subsystems.obs = true;
  spec.subsystems.health = true;
  spec.subsystems.security = true;
  return spec;
}

double wall_seconds(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// Best of three — wall-time gauges feed the perf gate, so damp scheduler
/// noise the same way the E21 hot-path bench does.
double best_wall_seconds(const std::function<void()>& body) {
  double best = wall_seconds(body);
  for (int i = 0; i < 2; ++i) best = std::min(best, wall_seconds(body));
  return best;
}

/// Source-frame index by Fig. 1 base id.
std::size_t frame_by_base(const ev::analysis::VehicleModel& model,
                          std::uint32_t base_id) {
  for (std::size_t f = 0; f < model.frames.size(); ++f)
    if (!model.frames[f].routed && model.frames[f].base_id == base_id) return f;
  return 0;
}

/// The deterministic move tape both measurement loops replay: CAN id swaps
/// on the comfort bus, a body frame bouncing between the CAN buses, and a
/// chassis slot swap — the annealer's working set.
void apply_tape_move(FitnessEvaluator& evaluator, int step) {
  const ev::analysis::VehicleModel& model = evaluator.model();
  switch (step % 4) {
    case 0: {  // swap the wire ids of 0x300 and 0x302 (via a temp id)
      const std::size_t a = frame_by_base(model, 0x300);
      const std::size_t b = frame_by_base(model, 0x302);
      const std::uint32_t id_a = model.frames[a].id;
      const std::uint32_t id_b = model.frames[b].id;
      evaluator.renumber_frame(a, 0x7f0);
      evaluator.renumber_frame(b, id_a);
      evaluator.renumber_frame(a, id_b);
      break;
    }
    case 1:  // bounce a body frame onto the safety bus...
      evaluator.move_frame(frame_by_base(model, 0x010), 3);
      break;
    case 2:  // ...and back home to LIN
      evaluator.move_frame(frame_by_base(model, 0x010), 0);
      break;
    default: {  // swap two chassis static slots
      std::map<std::uint32_t, std::size_t> slots = model.buses[4].fr_static_slot;
      std::swap(slots.at(0x100), slots.at(0x105));
      evaluator.set_fr_slots(slots);
      break;
    }
  }
}

/// Part 1 — incremental re-evaluation vs full re-analysis per move.
struct FitnessComparison {
  double incremental_s = 0.0;
  double full_s = 0.0;
  double speedup = 0.0;
  std::uint64_t incremental_passes = 0;
  std::uint64_t full_passes = 0;
  bool reports_match = true;
};

FitnessComparison compare_fitness_paths() {
  const ScenarioSpec spec = nominal_spec();
  const int moves = 200;

  FitnessComparison result;

  // Correctness first, untimed: after every tape move the incremental
  // report must equal the from-scratch analyzer's byte for byte.
  {
    FitnessEvaluator evaluator(ev::analysis::extract_model(spec));
    evaluator.evaluate();
    for (int step = 0; step < 8; ++step) {
      apply_tape_move(evaluator, step);
      const std::string incremental = ev::analysis::report_json(evaluator.report());
      const std::string full =
          ev::analysis::report_json(ev::analysis::analyze(evaluator.model()));
      if (incremental != full) result.reports_match = false;
    }
  }

  // Incremental: one persistent evaluator, dirty-closure re-evaluation.
  result.incremental_s = best_wall_seconds([&spec, moves, &result] {
    FitnessEvaluator evaluator(ev::analysis::extract_model(spec));
    evaluator.evaluate();
    const std::uint64_t settled = evaluator.bus_pass_evals();
    for (int step = 0; step < moves; ++step) {
      apply_tape_move(evaluator, step);
      benchmark::DoNotOptimize(evaluator.evaluate());
    }
    result.incremental_passes = evaluator.bus_pass_evals() - settled;
  });

  // Full: same tape, but every move pays what `evsys check` pays — a
  // from-scratch analyze() with nothing memoized, strings rendered and all.
  result.full_s = best_wall_seconds([&spec, moves, &result] {
    FitnessEvaluator mutator(ev::analysis::extract_model(spec));
    mutator.evaluate();
    for (int step = 0; step < moves; ++step) {
      apply_tape_move(mutator, step);
      benchmark::DoNotOptimize(ev::analysis::analyze(mutator.model()));
    }
    result.full_passes = static_cast<std::uint64_t>(moves) *
                         mutator.model().buses.size() * 3;
  });

  result.speedup = result.full_s / result.incremental_s;
  return result;
}

/// Part 2 — seed ladder of synthesized designs: static cleanliness plus the
/// E19 bound-vs-observation invariant under actual simulation.
struct LadderRow {
  std::uint64_t seed = 0;
  bool feasible = false;
  int check_errors = 0;
  int check_warnings = 0;
  std::size_t comparisons = 0;
  int bound_violations = 0;
  double min_margin_us = 1e18;
  double load_scale = 0.0;
};

LadderRow validate_synthesized(std::uint64_t seed) {
  LadderRow row;
  row.seed = seed;

  ev::synthesis::SynthesisOptions options;
  options.seed = seed;
  options.iters = 15;
  const ev::synthesis::SynthesisResult synthesized =
      ev::synthesis::synthesize(overloaded_spec(), options);
  row.feasible = synthesized.feasible;
  row.load_scale = synthesized.load_scale;

  const ev::analysis::VehicleModel model =
      ev::analysis::extract_model(synthesized.spec);
  const Report report = ev::analysis::analyze(model);
  row.check_errors =
      static_cast<int>(report.count(ev::analysis::Severity::kError));
  row.check_warnings =
      static_cast<int>(report.count(ev::analysis::Severity::kWarning));

  // Simulate the synthesized architecture and compare every observed
  // maximum against its static bound (the E19 soundness invariant).
  std::unique_ptr<ev::core::VehicleSystem> vehicle;
  (void)ev::core::run_scenario(synthesized.spec, &vehicle);
  for (const ev::analysis::BoundCheck& check :
       ev::analysis::bound_checks(model, report, *vehicle, synthesized.spec.faults)) {
    ++row.comparisons;
    row.min_margin_us = std::min(row.min_margin_us, check.bound_us - check.observed_us);
    if (!check.sound()) ++row.bound_violations;
  }
  return row;
}

int run_experiment() {
  std::puts("E23 — design-space synthesis: incremental fitness vs full "
            "re-analysis, and soundness of synthesized architectures\n");

  // ---- part 1: the incremental fitness core --------------------------------
  const FitnessComparison fitness = compare_fitness_paths();
  ev::util::Table part1("fitness evaluation per architecture move (200-move tape)",
                        {"path", "wall", "bus passes", "reports"});
  part1.add_row({"full re-analysis", ev::util::fmt(fitness.full_s * 1e3, 1) + " ms",
                 std::to_string(fitness.full_passes),
                 fitness.reports_match ? "identical" : "DIVERGED"});
  part1.add_row({"incremental", ev::util::fmt(fitness.incremental_s * 1e3, 1) + " ms",
                 std::to_string(fitness.incremental_passes),
                 fitness.reports_match ? "identical" : "DIVERGED"});
  part1.add_row({"speedup", ev::util::fmt(fitness.speedup, 2) + "x", "", ""});
  part1.print();

  int violations = fitness.reports_match ? 0 : 1;

  // ---- part 2: synthesized designs under simulation ------------------------
  ev::util::Table part2("seed ladder: synthesize -> check -> simulate",
                        {"seed", "feasible", "load", "errors", "warnings",
                         "bounds checked", "violations", "min margin"});
  std::size_t compared = 0;
  int check_failures = 0;
  int bound_violations = 0;
  evbench::run_seeded_campaign(1, 1, 3, [&](std::uint64_t seed, int) {
    const LadderRow row = validate_synthesized(seed);
    if (!row.feasible || row.check_errors > 0 || row.check_warnings > 0)
      ++check_failures;
    bound_violations += row.bound_violations;
    compared += row.comparisons;
    part2.add_row({std::to_string(row.seed), row.feasible ? "yes" : "NO",
                   ev::util::fmt(row.load_scale, 2),
                   std::to_string(row.check_errors),
                   std::to_string(row.check_warnings),
                   std::to_string(row.comparisons),
                   std::to_string(row.bound_violations),
                   ev::util::fmt(row.min_margin_us, 1) + " us"});
  });
  part2.print();
  violations += check_failures + bound_violations;

  // One representative end-to-end synthesis for the perf gate.
  const double synthesis_s = best_wall_seconds([] {
    ev::synthesis::SynthesisOptions options;
    options.seed = 1;
    options.iters = 15;
    benchmark::DoNotOptimize(
        ev::synthesis::synthesize(overloaded_spec(), options));
  });

  evbench::set_gauge("e23.fitness.incremental_wall_s", fitness.incremental_s);
  evbench::set_gauge("e23.fitness.full_wall_s", fitness.full_s);
  evbench::set_gauge("e23.fitness.speedup", fitness.speedup);
  evbench::set_gauge("e23.fitness.reports_match", fitness.reports_match ? 1 : 0);
  evbench::set_gauge("e23.speedup_target_met", fitness.speedup >= 5.0 ? 1 : 0);
  evbench::set_gauge("e23.synthesis.wall_s", synthesis_s);
  evbench::set_gauge("e23.ladder.check_failures", check_failures);
  evbench::set_gauge("e23.ladder.comparisons", static_cast<double>(compared));
  evbench::set_gauge("e23.ladder.bound_violations", bound_violations);

  std::printf("\nincremental speedup: %.2fx (target >= 5x), synthesized "
              "designs: %d check failure(s), %d bound violation(s) over %zu "
              "comparisons\n",
              fitness.speedup, check_failures, bound_violations, compared);
  std::puts("expected shape: identical reports at >= 5x speedup — memoized "
            "per-bus outcomes make a candidate move cost only its dirty "
            "closure — and zero violations: machine-synthesized designs obey "
            "the same static-bound soundness contract as hand-written ones.\n");
  return violations;
}

void bm_incremental_move_eval(benchmark::State& state) {
  FitnessEvaluator evaluator(ev::analysis::extract_model(nominal_spec()));
  evaluator.evaluate();
  int step = 0;
  for (auto _ : state) {
    apply_tape_move(evaluator, step++);
    benchmark::DoNotOptimize(evaluator.evaluate());
  }
}
BENCHMARK(bm_incremental_move_eval)->Unit(benchmark::kMicrosecond);

void bm_full_reanalysis_per_move(benchmark::State& state) {
  FitnessEvaluator evaluator(ev::analysis::extract_model(nominal_spec()));
  evaluator.evaluate();
  int step = 0;
  for (auto _ : state) {
    apply_tape_move(evaluator, step++);
    benchmark::DoNotOptimize(ev::analysis::analyze(evaluator.model()));
  }
}
BENCHMARK(bm_full_reanalysis_per_move)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const int violations = run_experiment();
  const int rc = evbench::finish("e23_synthesis", argc, argv);
  return violations > 0 ? 1 : rc;
}

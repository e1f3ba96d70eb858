// Unit tests for the design-space synthesizer: the repair path must turn the
// overloaded fixture into a scenario `evsys check` accepts, the seeded search
// must be byte-deterministic for any seed/jobs combination, the emitted spec
// must re-extract to exactly the fitness the search reported (the mirror
// contract), and the exposed building blocks (Audsley ids, rate-monotonic
// slots, FFD windows, Pareto dominance) must behave on their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ev/analysis/analyzer.h"
#include "ev/analysis/fitness.h"
#include "ev/analysis/model.h"
#include "ev/config/scenario.h"
#include "ev/synthesis/synthesis.h"

namespace {

using namespace ev::synthesis;
using ev::analysis::Fitness;
using ev::analysis::FitnessEvaluator;
using ev::analysis::VehicleModel;

// tests/data/overloaded.scn, inline: 20x nominal traffic saturates the
// network, so the unrepaired scenario fails check with errors.
ev::config::ScenarioSpec overloaded_spec() {
  ev::config::ScenarioSpec spec;
  spec.name = "overloaded";
  spec.subsystems.obs = true;
  spec.subsystems.health = true;
  spec.subsystems.security = true;
  spec.network.load_scale = 20.0;
  return spec;
}

ev::config::ScenarioSpec clean_spec() {
  ev::config::ScenarioSpec spec;
  spec.name = "clean";
  spec.subsystems.obs = true;
  spec.subsystems.health = true;
  spec.subsystems.security = true;
  return spec;
}

SynthesisOptions quick_options(std::uint64_t seed = 1, int iters = 10) {
  SynthesisOptions options;
  options.seed = seed;
  options.iters = iters;
  return options;
}

// ------------------------------------------------------------ repair --------

TEST(Synthesize, RepairsOverloadedScenarioToCheckClean) {
  const SynthesisResult result = synthesize(overloaded_spec(), quick_options());
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.fitness.feasible());
  // The ladder had to shed load: 20x nominal is architecturally hopeless.
  EXPECT_LT(result.load_scale, 20.0);
  EXPECT_GE(result.load_scale, 1.0);
  EXPECT_GT(result.ladder_steps, 1u);

  // The emitted spec IS the design: a from-scratch analysis must agree.
  const ev::analysis::Report report =
      ev::analysis::analyze_scenario(result.spec);
  EXPECT_EQ(report.count(ev::analysis::Severity::kError), 0u);
  EXPECT_EQ(report.count(ev::analysis::Severity::kWarning), 0u);
  EXPECT_EQ(ev::analysis::exit_code_for(report), 0);
}

TEST(Synthesize, FeasibleInputStaysFeasibleAndKeepsItsLoad) {
  const SynthesisResult result = synthesize(clean_spec(), quick_options(3, 5));
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.load_scale, 1.0);
}

TEST(Synthesize, EmittedSpecRoundTripsThroughText) {
  const SynthesisResult result = synthesize(overloaded_spec(), quick_options());
  const ev::config::ScenarioSpec reparsed =
      ev::config::ScenarioSpec::from_text(result.spec.to_text());
  EXPECT_EQ(reparsed, result.spec);
}

// ------------------------------------------------------- determinism --------

TEST(Synthesize, SameSeedGivesByteIdenticalResult) {
  const SynthesisResult a = synthesize(overloaded_spec(), quick_options(7, 12));
  const SynthesisResult b = synthesize(overloaded_spec(), quick_options(7, 12));
  EXPECT_EQ(a.spec.to_text(), b.spec.to_text());
  EXPECT_EQ(synthesis_json(a), synthesis_json(b));
}

TEST(Synthesize, WorkerCountDoesNotChangeTheResult) {
  SynthesisOptions serial = quick_options(5, 12);
  SynthesisOptions wide = serial;
  wide.jobs = 8;
  const SynthesisResult a = synthesize(overloaded_spec(), serial);
  const SynthesisResult b = synthesize(overloaded_spec(), wide);
  EXPECT_EQ(a.spec.to_text(), b.spec.to_text());
  EXPECT_EQ(synthesis_json(a), synthesis_json(b));
}

TEST(Synthesize, CrossCheckModeAgreesWithIncrementalSearch) {
  SynthesisOptions checked = quick_options(2, 6);
  checked.cross_check = true;
  // Every accepted move re-runs a from-scratch evaluation; divergence throws.
  const SynthesisResult a = synthesize(overloaded_spec(), checked);
  const SynthesisResult b = synthesize(overloaded_spec(), quick_options(2, 6));
  EXPECT_EQ(synthesis_json(a), synthesis_json(b));
}

TEST(Synthesize, SeedLadderAllFeasible) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const SynthesisResult result =
        synthesize(overloaded_spec(), quick_options(seed, 6));
    EXPECT_TRUE(result.feasible) << "seed " << seed;
    EXPECT_EQ(ev::analysis::exit_code_for(
                  ev::analysis::analyze_scenario(result.spec)),
              0)
        << "seed " << seed;
  }
}

// Seed 67 swaps a safety-CAN frame onto wire id 0x302 while a body frame
// moved to comfort CAN already holds 0x302 there: two frame_id entries
// share a new id on different buses, which is legal because wire ids are
// unique per bus. The emitted spec must validate and round-trip.
TEST(Synthesize, SameWireIdOnTwoBusesIsAValidDesign) {
  const SynthesisResult result = synthesize(overloaded_spec(), quick_options(67, 100));
  EXPECT_TRUE(result.feasible);
  EXPECT_NO_THROW(result.spec.validate());
  EXPECT_EQ(ev::config::ScenarioSpec::from_text(result.spec.to_text()), result.spec);

  std::map<std::uint32_t, std::set<std::size_t>> buses_by_new_id;
  for (const ev::config::FrameIdSpec& e : result.spec.arch.frame_ids)
    EXPECT_TRUE(buses_by_new_id[e.new_id].insert(result.spec.arch.bus_of(e.frame_id)).second)
        << "id " << e.new_id << " assigned twice on one bus";
  EXPECT_TRUE(std::any_of(buses_by_new_id.begin(), buses_by_new_id.end(),
                          [](const auto& entry) { return entry.second.size() > 1; }))
      << "seed 67 no longer reuses a wire id across buses";
}

// ------------------------------------------------------------ pareto --------

TEST(Synthesize, ParetoArchiveIsNonDominatedAndSlackSorted) {
  const SynthesisResult result = synthesize(overloaded_spec(), quick_options(9, 20));
  ASSERT_FALSE(result.pareto.empty());
  for (const ParetoPoint& point : result.pareto)
    EXPECT_TRUE(point.fitness.feasible());
  for (std::size_t i = 0; i < result.pareto.size(); ++i)
    for (std::size_t j = 0; j < result.pareto.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(dominates(result.pareto[i].fitness, result.pareto[j].fitness))
            << i << " dominates " << j;
      }
    }
  for (std::size_t i = 1; i < result.pareto.size(); ++i)
    EXPECT_GE(result.pareto[i - 1].fitness.worst_slack_us,
              result.pareto[i].fitness.worst_slack_us);
}

TEST(Dominates, RequiresNoWorseEverywhereAndBetterSomewhere) {
  Fitness base;
  base.worst_slack_us = 100.0;
  base.peak_busload = 0.5;
  base.deployment = 6;

  Fitness better = base;
  better.worst_slack_us = 200.0;
  EXPECT_TRUE(dominates(better, base));
  EXPECT_FALSE(dominates(base, better));
  EXPECT_FALSE(dominates(base, base));  // equal: no strict improvement

  Fitness tradeoff = base;
  tradeoff.worst_slack_us = 200.0;
  tradeoff.peak_busload = 0.7;  // better slack, worse busload
  EXPECT_FALSE(dominates(tradeoff, base));
  EXPECT_FALSE(dominates(base, tradeoff));
}

TEST(Energy, FeasibilityDominatesThenSlack) {
  Fitness infeasible;
  infeasible.errors = 1;
  infeasible.worst_slack_us = 10000.0;
  Fitness feasible;
  feasible.worst_slack_us = 1.0;
  feasible.peak_busload = 0.9;
  feasible.deployment = 7;
  EXPECT_LT(energy(feasible), energy(infeasible));

  Fitness slacker = feasible;
  slacker.worst_slack_us = 500.0;
  EXPECT_LT(energy(slacker), energy(feasible));
}

// --------------------------------------------------- building blocks --------

TEST(AssignCanIds, ReusesTheBusIdPoolAsAPermutation) {
  FitnessEvaluator evaluator(ev::analysis::extract_model(clean_spec()));
  evaluator.evaluate();
  const std::size_t comfort = 1;
  const std::map<std::size_t, std::uint32_t> assignment =
      assign_can_ids(evaluator, comfort);
  ASSERT_FALSE(assignment.empty());

  std::multiset<std::uint32_t> before, after;
  for (const auto& [frame, id] : assignment) {
    const ev::analysis::FrameModel& model_frame = evaluator.model().frames[frame];
    EXPECT_EQ(model_frame.bus, comfort);
    EXPECT_TRUE(model_frame.id_mutable);
    before.insert(model_frame.id);
    after.insert(id);
  }
  EXPECT_EQ(before, after);  // same pool, possibly permuted
}

TEST(RmFrSlots, ShorterPeriodsGetEarlierSlotsTiesById) {
  const VehicleModel model = ev::analysis::extract_model(clean_spec());
  const std::size_t chassis = 4;
  const std::map<std::uint32_t, std::size_t> slots = rm_fr_slots(model, chassis);
  ASSERT_EQ(slots.size(), model.buses[chassis].fr_static_slot.size());

  // Slot order must follow (period asc, id asc); ids owning a slot but
  // carrying no frame (the real-BMS case frees 0x106) sort last.
  const auto period_of = [&](std::uint32_t id) {
    for (const ev::analysis::FrameModel& frame : model.frames)
      if (frame.bus == chassis && frame.id == id) return frame.period_s;
    return 1e18;
  };
  std::vector<std::uint32_t> by_slot(slots.size());
  for (const auto& [id, slot] : slots) by_slot[slot] = id;
  for (std::size_t i = 1; i < by_slot.size(); ++i) {
    const double prev = period_of(by_slot[i - 1]);
    const double cur = period_of(by_slot[i]);
    EXPECT_TRUE(prev < cur || (prev == cur && by_slot[i - 1] < by_slot[i]))
        << "slot " << i;
  }
}

TEST(FfdPartitionWindows, OrdersByDecreasingBudgetAndCoversDemand) {
  const VehicleModel model = ev::analysis::extract_model(clean_spec());
  const std::vector<std::pair<std::string, std::int64_t>> windows =
      ffd_partition_windows(model);
  ASSERT_EQ(windows.size(), model.app.partitions.size());

  std::int64_t total = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_GE(windows[i].second, 1);
    total += windows[i].second;
    if (i > 0) {
      EXPECT_GE(windows[i - 1].second, windows[i].second);
    }
  }
  EXPECT_LE(total, model.app.major_frame_us);

  // Every partition appears exactly once.
  std::set<std::string> names;
  for (const auto& [name, budget] : windows) names.insert(name);
  EXPECT_EQ(names.size(), model.app.partitions.size());
}

TEST(SynthesisJson, ReportCarriesSearchProvenance) {
  const SynthesisResult result = synthesize(overloaded_spec(), quick_options(4, 5));
  const std::string json = synthesis_json(result);
  EXPECT_NE(json.find("\"scenario\": \"overloaded\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"iters\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"feasible\": true"), std::string::npos);
  EXPECT_NE(json.find("\"pareto\""), std::string::npos);
  // No worker count and no timing: the report is rerun/jobs invariant.
  EXPECT_EQ(json.find("\"jobs\""), std::string::npos);
  EXPECT_EQ(json.find("wall"), std::string::npos);
}

}  // namespace

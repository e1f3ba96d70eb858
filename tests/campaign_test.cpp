// Unit tests for the campaign module: the worker pool, the seed ladder,
// and the determinism contract — a campaign report must be byte-identical
// for any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "ev/campaign/campaign.h"
#include "ev/config/scenario.h"
#include "ev/util/parallel_for.h"

namespace {

using ev::campaign::CampaignOptions;
using ev::campaign::CampaignResult;
using ev::campaign::SeedPlan;

// ------------------------------------------------------------- parallel ----

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 3, 8}) {
    std::vector<std::atomic<int>> hits(37);
    ev::util::parallel_for(jobs, 37, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
    for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, HandlesDegenerateShapes) {
  std::atomic<int> calls{0};
  ev::util::parallel_for(4, 0, [&](int) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  ev::util::parallel_for(16, 3, [&](int) { ++calls; });  // jobs > count
  EXPECT_EQ(calls.load(), 3);
  ev::util::parallel_for(0, 5, [&](int) { ++calls; });  // 0 = hardware
  EXPECT_EQ(calls.load(), 8);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  std::atomic<int> completed{0};
  EXPECT_THROW(ev::util::parallel_for(4, 16,
                                      [&](int i) {
                                        if (i == 5) throw std::runtime_error("boom");
                                        ++completed;
                                      }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // the round drains before rethrowing
}

TEST(ResolveJobs, ClampsToTaskCount) {
  EXPECT_EQ(ev::util::resolve_jobs(4, 2), 2);
  EXPECT_EQ(ev::util::resolve_jobs(1, 100), 1);
  EXPECT_GE(ev::util::resolve_jobs(0, 100), 1);  // hardware concurrency
  EXPECT_EQ(ev::util::resolve_jobs(-3, 100), ev::util::resolve_jobs(0, 100));
}

// ------------------------------------------------------------ seed plan ----

TEST(SeedPlan, LadderArithmetic) {
  const SeedPlan plan{/*first=*/10, /*stride=*/3, /*count=*/4};
  EXPECT_EQ(plan.seed(0), 10u);
  EXPECT_EQ(plan.seed(3), 19u);
}

// ------------------------------------------------------------- campaign ----

ev::config::ScenarioSpec test_scenario() {
  ev::config::ScenarioSpec spec;
  spec.name = "campaign-test";
  spec.drive.cycle = ev::config::CycleKind::kUrban;
  spec.subsystems.obs = true;
  spec.subsystems.faults = true;
  spec.subsystems.health = true;
  return spec;
}

TEST(Campaign, ReportIsByteIdenticalAcrossWorkerCounts) {
  // The tentpole contract: per-seed runs are pure functions of (spec, seed)
  // and the fold happens in seed-index order on one thread, so the rendered
  // report can never depend on --jobs.
  const ev::config::ScenarioSpec spec = test_scenario();
  const auto render = [&](int jobs) {
    const CampaignOptions options{{/*first=*/1, /*stride=*/1, /*count=*/4}, jobs};
    return ev::campaign::campaign_json(ev::campaign::run_scenario_campaign(spec, options));
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(3));
  EXPECT_NE(serial.find("\"runs\":["), std::string::npos);
  EXPECT_NE(serial.find("\"cross_seed\":"), std::string::npos);
  EXPECT_NE(serial.find("\"metrics\":"), std::string::npos);
  EXPECT_EQ(serial.find("\"jobs\":"), std::string::npos);  // worker count never leaks
}

TEST(Campaign, RunsCarrySeedsInLadderOrder) {
  const CampaignOptions options{{/*first=*/5, /*stride=*/2, /*count=*/3}, 2};
  const CampaignResult result =
      ev::campaign::run_scenario_campaign(test_scenario(), options);
  ASSERT_EQ(result.runs.size(), 3u);
  EXPECT_EQ(result.runs[0].seed, 5u);
  EXPECT_EQ(result.runs[1].seed, 7u);
  EXPECT_EQ(result.runs[2].seed, 9u);
  for (const ev::campaign::SeedRun& run : result.runs) {
    EXPECT_GT(run.distance_km, 0.0);
    EXPECT_GT(run.battery_energy_out_wh, 0.0);
  }
  // Different seeds perturb the powertrain, so the digests must differ.
  EXPECT_NE(result.runs[0].digest, result.runs[1].digest);
}

}  // namespace

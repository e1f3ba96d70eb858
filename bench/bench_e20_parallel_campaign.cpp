// Experiment E20: parallel deterministic campaigns. The ROADMAP's scale
// argument (and the paper's E13 multicore-consolidation theme) says the
// stack should exploit host parallelism; seed-partitioned campaigns are
// embarrassingly parallel as long as aggregation is order-independent. The
// campaign runner gives every seed its own Simulator/VehicleSystem/
// MetricsRegistry and folds the shards in seed-index order, so the report
// is byte-identical for any worker count — this experiment proves that
// byte-equality across jobs = 1/2/4/8 and reports the wall-clock speedup
// (expect ~min(jobs, cores)x on a multi-core host; exactly 1x on one core).
#include <chrono>
#include <cstdio>
#include <string>

#include "ev/campaign/campaign.h"
#include "ev/config/scenario.h"
#include "ev/util/table.h"
#include "ev/util/parallel_for.h"
#include "harness.h"

namespace {

using ev::campaign::CampaignOptions;
using ev::campaign::CampaignResult;

constexpr int kSeeds = 8;

ev::config::ScenarioSpec campaign_scenario() {
  ev::config::ScenarioSpec spec;
  spec.name = "e20-campaign";
  spec.drive.cycle = ev::config::CycleKind::kUrban;
  spec.subsystems.obs = true;  // exercise the per-shard registry merge path
  spec.subsystems.faults = true;
  spec.subsystems.health = true;
  return spec;
}

std::string run_with_jobs(int jobs, double* wall_s) {
  const CampaignOptions options{{/*first=*/1, /*stride=*/1, kSeeds}, jobs};
  const auto begin = std::chrono::steady_clock::now();
  const CampaignResult result = run_scenario_campaign(campaign_scenario(), options);
  const auto end = std::chrono::steady_clock::now();
  *wall_s = std::chrono::duration<double>(end - begin).count();
  return ev::campaign::campaign_json(result);
}

void run_experiment() {
  std::puts("E20 — parallel deterministic campaign: one scenario, an 8-seed "
            "ladder, jobs = 1/2/4/8\n");
  std::printf("host hardware threads: %d\n\n",
              ev::util::resolve_jobs(0, 1 << 30));

  ev::util::Table table("jobs sweep (same 8-seed campaign, byte-compared reports)",
                        {"jobs", "wall", "speedup", "report identical"});
  double serial_s = 0.0;
  std::string reference;
  bool all_identical = true;
  for (const int jobs : {1, 2, 4, 8}) {
    double wall_s = 0.0;
    const std::string json = run_with_jobs(jobs, &wall_s);
    if (jobs == 1) {
      serial_s = wall_s;
      reference = json;
    }
    const bool identical = json == reference;
    all_identical = all_identical && identical;
    table.add_row({std::to_string(jobs), ev::util::fmt(wall_s, 2) + " s",
                   ev::util::fmt(serial_s / wall_s, 2) + "x",
                   identical ? "yes" : "NO"});
  }
  table.print();

  // Wall-clock figures are host-dependent and stay on stdout; the exported
  // snapshot carries only the deterministic outcome of the sweep.
  evbench::set_gauge("e20.seeds", kSeeds);
  evbench::set_gauge("e20.jobs_reports_identical", all_identical ? 1.0 : 0.0);

  std::printf("\nreports byte-identical across jobs 1/2/4/8: %s\n",
              all_identical ? "yes" : "NO");
  std::puts("expected shape: per-seed runs are pure functions of (spec, seed) "
            "and the fold order is fixed, so the campaign report never depends "
            "on the worker count; wall-clock drops ~linearly until the seed "
            "count or the core count saturates.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e20_parallel_campaign");
}

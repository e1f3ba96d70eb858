#include "ev/campaign/campaign.h"

#include <cstdio>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "ev/core/scenario.h"
#include "ev/core/subsystems.h"
#include "ev/obs/export.h"
#include "ev/util/crc.h"
#include "ev/util/json.h"
#include "ev/util/stats.h"
#include "ev/util/worker_pool.h"

namespace ev::campaign {
namespace {

/// Everything one worker produces; folded on the coordinator in seed order.
struct Shard {
  SeedRun run;
  obs::MetricsRegistry metrics;
};

Shard run_one(const config::ScenarioSpec& base, std::uint64_t seed) {
  config::ScenarioSpec spec = base;
  spec.powertrain.seed = seed;
  spec.fault_seed = seed;

  std::unique_ptr<core::VehicleSystem> vehicle;
  const core::ScenarioRunResult result = core::run_scenario(spec, &vehicle);
  const std::string json = core::result_json(result);

  Shard shard;
  shard.run.seed = seed;
  shard.run.digest = util::crc32_ieee(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
  shard.run.distance_km = result.cosim.cycle.distance_km;
  shard.run.battery_energy_out_wh = result.cosim.cycle.battery_energy_out_wh;
  shard.run.consumption_wh_km = result.cosim.cycle.consumption_wh_km;
  shard.run.final_soc = result.cosim.cycle.final_soc;
  if (auto* obs = vehicle->find_subsystem<core::ObservabilitySubsystem>())
    shard.metrics.merge(obs->metrics());
  return shard;
}

void write_double(std::ostream& out, double value) {
  out << config::format_double(value);
}

void write_stat_row(std::ostream& out, const char* key,
                    const util::RunningStats& stats) {
  out << '"' << key << "\":{\"min\":";
  write_double(out, stats.min());
  out << ",\"mean\":";
  write_double(out, stats.mean());
  out << ",\"max\":";
  write_double(out, stats.max());
  out << '}';
}

}  // namespace

CampaignResult run_scenario_campaign(const config::ScenarioSpec& spec,
                                     const CampaignOptions& options) {
  if (options.seeds.count <= 0)
    throw std::invalid_argument("campaign: seed count must be positive");
  spec.validate();

  // Fan out: every rung runs on a private simulator stack and writes only
  // its own slot. Fold back in seed-index order on this thread, so the
  // aggregate is a pure function of (spec, seeds) — never of the job count.
  std::vector<std::optional<Shard>> shards(
      static_cast<std::size_t>(options.seeds.count));
  util::WorkerPool pool(util::resolve_jobs(options.jobs, options.seeds.count));
  pool.run(options.seeds.count, [&](int i) {
    shards[static_cast<std::size_t>(i)].emplace(run_one(spec, options.seeds.seed(i)));
  });

  CampaignResult result;
  result.scenario = spec.name;
  result.seeds = options.seeds;
  result.runs.reserve(shards.size());
  for (std::optional<Shard>& shard : shards) {
    result.runs.push_back(shard->run);
    result.metrics.merge(shard->metrics);
  }
  return result;
}

void write_campaign_json(const CampaignResult& result, std::ostream& out) {
  out << "{\"scenario\":\"" << util::json_escape(result.scenario) << "\",";
  out << "\"seeds\":{\"first\":" << result.seeds.first
      << ",\"stride\":" << result.seeds.stride << ",\"count\":" << result.seeds.count
      << "},";

  util::RunningStats distance, energy_out, consumption, soc;
  out << "\"runs\":[";
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const SeedRun& run = result.runs[i];
    char digest[16];
    std::snprintf(digest, sizeof digest, "%08x", run.digest);
    if (i > 0) out << ',';
    out << "{\"seed\":" << run.seed << ",\"digest\":\"" << digest
        << "\",\"distance_km\":";
    write_double(out, run.distance_km);
    out << ",\"battery_energy_out_wh\":";
    write_double(out, run.battery_energy_out_wh);
    out << ",\"consumption_wh_km\":";
    write_double(out, run.consumption_wh_km);
    out << ",\"final_soc\":";
    write_double(out, run.final_soc);
    out << '}';
    distance.add(run.distance_km);
    energy_out.add(run.battery_energy_out_wh);
    consumption.add(run.consumption_wh_km);
    soc.add(run.final_soc);
  }
  out << "],";

  out << "\"cross_seed\":{";
  write_stat_row(out, "distance_km", distance);
  out << ',';
  write_stat_row(out, "battery_energy_out_wh", energy_out);
  out << ',';
  write_stat_row(out, "consumption_wh_km", consumption);
  out << ',';
  write_stat_row(out, "final_soc", soc);
  out << "},";

  std::ostringstream metrics;
  obs::write_metrics_json(result.metrics, metrics);
  std::string snapshot = metrics.str();
  while (!snapshot.empty() && snapshot.back() == '\n') snapshot.pop_back();
  out << "\"metrics\":" << snapshot << "}\n";
}

std::string campaign_json(const CampaignResult& result) {
  std::ostringstream out;
  write_campaign_json(result, out);
  return out.str();
}

}  // namespace ev::campaign

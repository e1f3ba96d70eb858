// Experiment E22: fault-tolerant fleet charging. The robustness contract of
// the OCPP-style central system (src/fleet) is exercised over a seed ladder
// in three campaigns — clean, heartbeat-loss (lossy channel + comms
// blackout), and grid-fault (capacity drop + feeder partition) — and the
// invariants are checked on every run: the summed station draw never
// exceeds the live grid capacity (ThrottleAlive reservations make silence
// safe), no authorized session is dropped uncleanly (sheds suspend, never
// strand), and dead-lettered accounting messages are journaled and
// redelivered until billing converges. Every run is a pure function of
// (spec, seed): reports are byte-identical across reruns and worker counts,
// so the exported snapshot carries no wall-clock gauges at all.
#include <cstdio>
#include <string>
#include <vector>

#include "ev/config/fleet.h"
#include "ev/fleet/simulation.h"
#include "ev/util/stats.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using ev::config::FleetSpec;
using ev::config::GridFaultKindSpec;
using ev::config::GridFaultSpec;
using ev::fleet::FleetResult;

constexpr int kSeeds = 6;
constexpr std::uint64_t kFirstSeed = 1;

FleetSpec base_spec() {
  FleetSpec spec;
  spec.name = "e22-fleet";
  spec.stations = 48;
  spec.feeders = 4;
  spec.sim_hours = 1.0;
  spec.grid_capacity_kw = 250.0;  // 48 x 32 A x 400 V = 614 kW demand ceiling
  spec.arrival_rate_per_station_per_h = 1.5;
  spec.session_energy_min_kwh = 3.0;
  spec.session_energy_max_kwh = 10.0;
  spec.rogue_stations = 1;
  return spec;
}

FleetSpec heartbeat_loss_spec() {
  FleetSpec spec = base_spec();
  spec.name = "e22-heartbeat-loss";
  spec.msg_loss_probability = 0.05;
  // A third of the fleet loses its control channel for 10 minutes.
  spec.grid_faults.push_back(
      GridFaultSpec{1200.0, GridFaultKindSpec::kCommsBlackout, 0, 16.0, 600.0});
  return spec;
}

FleetSpec grid_fault_spec() {
  FleetSpec spec = base_spec();
  spec.name = "e22-grid-fault";
  spec.grid_faults.push_back(
      GridFaultSpec{1200.0, GridFaultKindSpec::kCapacityDrop, 0, 0.85, 600.0});
  spec.grid_faults.push_back(
      GridFaultSpec{2400.0, GridFaultKindSpec::kFeederPartition, 1, 0.0, 300.0});
  return spec;
}

/// Seed-ladder aggregate of one campaign variant.
struct CampaignAggregate {
  std::uint64_t violations = 0;
  std::uint64_t completed = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t dead_letters = 0;
  std::uint64_t redelivered = 0;
  std::uint64_t journal_residue = 0;
  std::uint64_t shed_suspensions = 0;
  std::uint64_t open_at_end = 0;
  double energy_kwh = 0.0;
  double billed_kwh = 0.0;
  ev::util::RunningStats latency_p99_s;
  ev::util::RunningStats latency_max_s;
  ev::util::RunningStats sessions_per_hour;
  std::uint32_t digest_xor = 0;
};

CampaignAggregate run_campaign(const FleetSpec& base) {
  CampaignAggregate agg;
  // Each rung is an independent serial fleet run; the rungs fan out over the
  // bench's job budget and fold in seed order.
  evbench::run_seeded_campaign(
      kFirstSeed, 1, kSeeds, evbench::default_jobs(),
      [&](std::uint64_t seed, int) {
        FleetSpec spec = base;
        spec.seed = seed;
        return ev::fleet::run_fleet(spec, 1);
      },
      [&](FleetResult result, std::uint64_t, int) {
        agg.violations += result.grid_violations;
        agg.completed += result.stations.sessions_completed;
        agg.arrivals += result.stations.arrivals;
        agg.lease_expiries += result.stations.lease_expiries;
        agg.reconnects += result.stations.reconnects;
        agg.dead_letters += result.messages_dead_lettered;
        agg.redelivered += result.stations.redelivered;
        agg.journal_residue += result.journal_pending_end;
        agg.shed_suspensions += result.central.shed_suspensions;
        agg.open_at_end += result.open_transactions_end;
        agg.energy_kwh += result.stations.energy_delivered_kwh;
        agg.billed_kwh += result.central.billed_kwh;
        agg.latency_p99_s.add(result.central.decision_latency_s.percentile(99.0));
        agg.latency_max_s.add(result.central.decision_latency_s.max());
        agg.sessions_per_hour.add(
            static_cast<double>(result.stations.sessions_completed) /
            result.sim_hours);
        agg.digest_xor ^= result.digest;
      });
  return agg;
}

void export_campaign_gauges(const std::string& prefix, const CampaignAggregate& agg) {
  evbench::set_gauge(prefix + ".grid_violations", static_cast<double>(agg.violations));
  evbench::set_gauge(prefix + ".sessions_completed", static_cast<double>(agg.completed));
  evbench::set_gauge(prefix + ".lease_expiries",
                     static_cast<double>(agg.lease_expiries));
  evbench::set_gauge(prefix + ".dead_letters", static_cast<double>(agg.dead_letters));
  evbench::set_gauge(prefix + ".journal_residue",
                     static_cast<double>(agg.journal_residue));
  evbench::set_gauge(prefix + ".latency_p99_s_mean", agg.latency_p99_s.mean());
  evbench::set_gauge(prefix + ".digest_xor", static_cast<double>(agg.digest_xor));
}

void run_experiment() {
  std::puts("E22 — fault-tolerant fleet charging: 48 stations / 250 kW grid, "
            "6-seed ladder,\nclean vs heartbeat-loss vs grid-fault campaigns\n");

  const CampaignAggregate clean = run_campaign(base_spec());
  const CampaignAggregate lossy = run_campaign(heartbeat_loss_spec());
  const CampaignAggregate faulted = run_campaign(grid_fault_spec());

  ev::util::Table table(
      "fleet campaigns (totals over " + std::to_string(kSeeds) + " seeds)",
      {"campaign", "done/arrived", "grid viol", "lease exp", "dead ltr",
       "redeliv", "p99 lat", "sess/h"});
  const auto row = [&](const char* name, const CampaignAggregate& agg) {
    table.add_row({name,
                   std::to_string(agg.completed) + "/" + std::to_string(agg.arrivals),
                   std::to_string(agg.violations),
                   std::to_string(agg.lease_expiries),
                   std::to_string(agg.dead_letters),
                   std::to_string(agg.redelivered),
                   ev::util::fmt(agg.latency_p99_s.mean(), 1) + " s",
                   ev::util::fmt(agg.sessions_per_hour.mean(), 1)});
  };
  row("clean", clean);
  row("heartbeat-loss", lossy);
  row("grid-fault", faulted);
  table.print();

  // Robustness contract checks — a regression here is a correctness bug,
  // not a slowdown, so say so loudly and export it for the CI gate.
  bool ok = true;
  const auto check = [&](bool condition, const char* what) {
    if (!condition) {
      std::printf("INVARIANT VIOLATED: %s\n", what);
      ok = false;
    }
  };
  check(clean.violations + lossy.violations + faulted.violations == 0,
        "total draw exceeded grid capacity");
  check(lossy.lease_expiries > 0, "blackout produced no lease expiries");
  check(lossy.reconnects == lossy.lease_expiries,
        "some throttled station never reconnected");
  check(lossy.dead_letters > 0, "lossy campaign produced no dead letters");
  check(lossy.journal_residue + faulted.journal_residue == 0,
        "dead-letter journal never drained");
  check(faulted.shed_suspensions > 0, "capacity drop never shed load");
  check(clean.completed > 0 && lossy.completed > 0 && faulted.completed > 0,
        "a campaign completed zero sessions");
  check(clean.billed_kwh <= clean.energy_kwh + 1e-9 &&
            lossy.billed_kwh <= lossy.energy_kwh + 1e-9 &&
            faulted.billed_kwh <= faulted.energy_kwh + 1e-9,
        "billed more energy than was delivered");

  export_campaign_gauges("e22.clean", clean);
  export_campaign_gauges("e22.heartbeat_loss", lossy);
  export_campaign_gauges("e22.grid_fault", faulted);
  evbench::set_gauge("e22.invariants_ok", ok ? 1.0 : 0.0);

  std::printf("\nrobustness invariants: %s\n", ok ? "all hold" : "VIOLATED");
  std::puts("expected shape: the lossy campaign trades sessions/hour for lease "
            "expiries and dead-letter traffic but never violates the grid "
            "limit; the grid-fault campaign sheds newest sessions during the "
            "drop and resumes them afterwards — open transactions survive "
            "every fault.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e22_fleet_charging");
}

// Experiment E17: deterministic system-wide fault injection with health
// monitoring and graceful degradation. The paper's architecture argument is
// that dependability must be a *system* property: faults arise in sensors,
// buses, and software partitions, are detected by each domain's regular
// mechanism (debounced envelope monitoring, CRC checks, heartbeat
// watchdogs), and are answered by a coordinated vehicle-level reaction
// rather than an immediate shutdown. This experiment drives one seeded
// FaultPlan through all three injection layers and reports, per fault
// class, how the detection chain and the DegradationManager responded.
// The whole campaign is a pure function of the seed: same seed, same
// BENCH_e17_fault_injection.json, byte for byte.
#include <cstdio>
#include <string>
#include <vector>

#include "ev/bms/battery_manager.h"
#include "ev/faults/degradation.h"
#include "ev/faults/fault_plan.h"
#include "ev/faults/network_faults.h"
#include "ev/middleware/health.h"
#include "ev/middleware/middleware.h"
#include "ev/network/can.h"
#include "ev/obs/kernel_counters.h"
#include "ev/sim/simulator.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using ev::faults::DegradationManager;
using ev::faults::DriveMode;
using ev::faults::FaultPlan;
using ev::sim::Simulator;
using ev::sim::Time;

constexpr std::uint64_t kSeed = 17;

struct Transition {
  double t_s;
  DriveMode from;
  DriveMode to;
  std::string cause;
};

struct CampaignReport {
  std::vector<Transition> transitions;
  std::vector<ev::faults::Injection> injections;
  DriveMode final_mode = DriveMode::kNormal;
  std::uint64_t restarts = 0;
  std::uint64_t heartbeat_misses = 0;
  std::uint64_t watcher_reports = 0;
  std::size_t bus_dropped = 0;
  std::size_t bus_corrupted = 0;
  std::size_t bus_busoff_rejected = 0;
  std::size_t bms_faults = 0;
};

/// One full campaign: BMS sensor faults, a partition crash and a hang, and
/// bus drop/corruption/bus-off plus a babbling idiot, all from one plan.
CampaignReport run_campaign(std::uint64_t seed, ev::obs::MetricsRegistry* metrics) {
  Simulator sim;
  ev::obs::KernelCounters kernel;  // registered first: sim.* lead the snapshot
  if (metrics) kernel = ev::obs::KernelCounters(*metrics);
  CampaignReport report;

  DegradationManager deg(sim);
  if (metrics) deg.attach_observer(*metrics);
  deg.set_listener([&](DriveMode from, DriveMode to, const std::string& cause) {
    report.transitions.push_back(Transition{sim.now().to_seconds(), from, to, cause});
  });

  // --- network layer ------------------------------------------------------
  ev::network::CanBus can(sim, "body_can", 125e3);
  if (metrics) can.attach_observer(*metrics);
  sim.schedule_periodic(Time::us(700), Time::ms(10), [&] {
    ev::network::Frame f;
    f.id = 0x300;
    f.source = 4;
    (void)can.send(f);
  });
  ev::faults::NetworkHealthWatcher watcher(sim, deg,
                                           {/*poll_period_us=*/5000,
                                            /*utilization_limit=*/0.5});
  watcher.watch(can);
  if (metrics) watcher.attach_observer(*metrics);
  watcher.start();
  ev::faults::BabblingIdiot idiot(sim, can, /*id=*/0, /*period_us=*/250);

  // --- middleware layer ---------------------------------------------------
  ev::middleware::Middleware mw(sim, "vcu", 10000);
  const std::size_t p_drive = mw.create_partition("drive", 3000, 2);
  const std::size_t p_comfort = mw.create_partition("comfort", 3000, 0);
  mw.deploy(p_drive, ev::middleware::Runnable{
                         "ctrl", 10000, 200,
                         [] { return ev::middleware::RunOutcome::kOk; }});
  ev::middleware::HealthMonitor health(sim, mw);
  if (metrics) health.attach_observer(*metrics);
  health.set_listener([&](std::size_t, ev::middleware::HealthEvent event, Time) {
    if (event == ev::middleware::HealthEvent::kRestart) deg.on_partition_restart();
  });
  health.start();
  mw.start();

  // --- battery/BMS layer --------------------------------------------------
  ev::util::Rng rng(seed + 1);
  ev::battery::PackConfig pc;
  pc.initial_soc = 0.7;
  ev::battery::Pack pack(pc, rng);
  ev::bms::BmsConfig bc;
  bc.initial_soc_estimate = 0.7;
  ev::bms::BatteryManager bms(pack, bc);
  sim.schedule_periodic(Time::ms(10), Time::ms(10), [&] {
    (void)pack.step(12.0, 0.01);
    deg.on_bms(bms.step(pack, 0.01, rng).action);
  });

  // --- the fault plan -----------------------------------------------------
  FaultPlan plan(seed);
  plan.set_degradation(&deg);
  if (metrics) plan.attach_observer(*metrics);

  plan.add(Time::ms(40), "can.drop_burst", [&] { can.inject_drop(5); });
  plan.add(Time::ms(80), "can.corruption", [&] { can.inject_corruption(3); });
  plan.add(Time::ms(120), "mw.partition_crash",
           [&] { mw.partition(p_drive).inject_crash(); });
  plan.add(Time::ms(200), "can.bus_off", [&] { can.inject_bus_off(Time::ms(8)); });
  plan.add(Time::us(255000), "bms.stuck_voltage_sensor", [&] {
    ev::battery::SensorFault stuck;
    stuck.mode = ev::battery::SensorFaultMode::kStuckAt;
    stuck.stuck_value = 5.0;
    bms.inject_voltage_sensor_fault(2, stuck);
  });
  plan.add(Time::ms(320), "mw.partition_hang",
           [&] { mw.partition(p_comfort).inject_hang(10); });
  plan.add(Time::ms(400), "can.babbling_idiot", [&] { idiot.start(); });
  plan.arm(sim);

  sim.run_until(Time::ms(600));

  report.injections = plan.injections();
  report.final_mode = deg.mode();
  report.restarts = health.restarts();
  report.heartbeat_misses = health.heartbeat_misses();
  report.watcher_reports = watcher.faults_reported();
  report.bus_dropped = can.fault_dropped_count();
  report.bus_corrupted = can.fault_corrupted_count();
  report.bus_busoff_rejected = can.busoff_rejected_count();
  report.bms_faults = bms.safety().faults().size();
  // The campaign is over: count the kernel now, so the RAII teardown of the
  // actors below (their owned periodics cancel on destruction) stays out of
  // the exported kernel counters.
  if (metrics) kernel.add(*metrics, sim);
  return report;
}

void injection_table(const CampaignReport& r) {
  ev::util::Table table("injected faults (seed 17, one deterministic plan)",
                        {"t [ms]", "fault", "layer"});
  for (const ev::faults::Injection& inj : r.injections) {
    const std::string layer = inj.label.substr(0, inj.label.find('.'));
    char t[32];
    std::snprintf(t, sizeof t, "%.1f", inj.at.to_seconds() * 1e3);
    table.add_row({t, inj.label, layer});
  }
  table.print();
}

void reaction_table(const CampaignReport& r) {
  ev::util::Table table("mode-machine reactions", {"t [ms]", "from", "to", "cause"});
  for (const Transition& tr : r.transitions) {
    char t[32];
    std::snprintf(t, sizeof t, "%.1f", tr.t_s * 1e3);
    table.add_row({t, ev::faults::to_string(tr.from), ev::faults::to_string(tr.to),
                   tr.cause});
  }
  table.print();
}

void detection_table(const CampaignReport& r) {
  ev::util::Table table("per-class detection accounting", {"detector", "count"});
  table.add_row({"bus frames dropped (injected)", std::to_string(r.bus_dropped)});
  table.add_row({"bus frames CRC-discarded", std::to_string(r.bus_corrupted)});
  table.add_row({"sends rejected in bus-off", std::to_string(r.bus_busoff_rejected)});
  table.add_row({"network fault episodes reported", std::to_string(r.watcher_reports)});
  table.add_row({"heartbeat misses", std::to_string(r.heartbeat_misses)});
  table.add_row({"watchdog partition restarts", std::to_string(r.restarts)});
  table.add_row({"BMS faults latched", std::to_string(r.bms_faults)});
  table.print();
}

void run_experiment() {
  std::puts("E17 — deterministic fault injection, health monitoring, and "
            "graceful degradation\n");
  const CampaignReport r = run_campaign(kSeed, &evbench::metrics());
  injection_table(r);
  reaction_table(r);
  detection_table(r);

  // The injection times are fixed; the seed only perturbs the plan's
  // bookkeeping and the battery draw. Sweeping it shows the reaction chain,
  // not the randomness, decides the outcome.
  ev::util::Table sweep("seed sweep (same plan, three seeds)",
                        {"seed", "final mode", "transitions", "restarts"});
  // Each sweep rung builds its own simulator stack (no shared registry —
  // metrics stay with the seed-17 headline campaign above), so the rungs
  // fan out across workers and fold back into the table in seed order.
  evbench::run_seeded_campaign(
      kSeed, 1, 3, evbench::default_jobs(),
      [](std::uint64_t seed, int) { return run_campaign(seed, nullptr); },
      [&](CampaignReport s, std::uint64_t seed, int) {
        sweep.add_row({std::to_string(seed), ev::faults::to_string(s.final_mode),
                       std::to_string(s.transitions.size()),
                       std::to_string(s.restarts)});
      });
  sweep.print();

  evbench::set_gauge("e17.final_mode",
                     static_cast<double>(static_cast<std::uint8_t>(r.final_mode)));
  evbench::set_gauge("e17.transitions", static_cast<double>(r.transitions.size()));
  evbench::set_gauge("e17.injections", static_cast<double>(r.injections.size()));
  evbench::set_gauge("e17.partition_restarts", static_cast<double>(r.restarts));

  std::printf("final drive mode: %s (after %zu injected faults, %zu mode "
              "transitions)\n",
              ev::faults::to_string(r.final_mode).c_str(), r.injections.size(),
              r.transitions.size());
  std::puts("expected shape: every fault class is caught by its own "
            "detector — CRC discard for corruption, heartbeat silence for "
            "crash/hang, debounced envelope violation for the stuck sensor, "
            "utilization/bus-off episodes for the babbling idiot — and the "
            "vehicle degrades stepwise (normal -> derated -> limp-home -> "
            "safe-stop) instead of failing on the first fault.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e17_fault_injection");
}

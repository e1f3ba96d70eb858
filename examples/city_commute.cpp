// City commute under full co-simulation: the powertrain plant, the Fig. 1
// in-vehicle network, and the middleware-hosted cockpit software share one
// clock. Real battery telemetry crosses from the chassis FlexRay through
// the central gateway into the infotainment domain, where the range
// information service answers the HMI.
//
// The whole stack is assembled by the composition root from a declarative
// scenario: observability, health monitoring, and authenticated chassis
// telemetry plug in as subsystems — the same wiring `evsys run
// examples/scenarios/city_commute.scn` produces.
//
//   $ ./city_commute
#include <cstdio>

#include "ev/config/scenario.h"
#include "ev/core/scenario.h"
#include "ev/core/subsystems.h"
#include "ev/util/stats.h"
#include "ev/util/table.h"

int main() {
  using namespace ev::core;

  ev::config::ScenarioSpec spec;
  spec.name = "city-commute";
  spec.drive.cycle = ev::config::CycleKind::kUrban;
  spec.drive.repeat = 2;
  spec.bms.balancing = ev::config::Balancing::kActive;
  spec.powertrain.seed = 7;
  spec.subsystems.obs = true;
  spec.subsystems.health = true;
  spec.subsystems.security = true;

  std::printf("Commuting %.1f km of stop-and-go under co-simulation...\n\n",
              to_drive_cycle(spec).ideal_distance_m() / 1000.0);

  std::unique_ptr<VehicleSystem> vehicle;
  const ScenarioRunResult result = run_scenario(spec, &vehicle);
  const CoSimResult& r = result.cosim;

  ev::util::Table drive("driving", {"metric", "value"});
  drive.add_row({"distance", ev::util::fmt(r.cycle.distance_km, 2) + " km"});
  drive.add_row({"consumption", ev::util::fmt(r.cycle.consumption_wh_km, 1) + " Wh/km"});
  drive.add_row({"recuperated", ev::util::fmt(r.cycle.regen_recovered_wh, 0) + " Wh"});
  drive.add_row({"final SoC", ev::util::fmt_pct(r.cycle.final_soc)});
  drive.print();

  ev::util::Table net("in-vehicle network during the commute",
                      {"bus", "utilization", "frames", "mean latency"});
  for (auto* bus : vehicle->network().buses()) {
    net.add_row({bus->name(), ev::util::fmt_pct(bus->utilization(), 2),
                 std::to_string(bus->delivered_count()),
                 ev::util::fmt(ev::util::summarize(bus->latency()).mean * 1e3, 3) + " ms"});
  }
  net.print();

  std::printf("\nBattery telemetry: %zu frames published on chassis FlexRay, "
              "%zu received in infotainment (mean %.2f ms door to door)\n",
              r.bms_frames_published, r.bms_frames_at_hmi, r.bms_to_hmi_latency_ms);
  std::printf("Range service answered %zu HMI queries; final answer: %.0f km\n",
              r.range_service_calls, r.last_range_km);

  auto* security = vehicle->find_subsystem<SecuritySubsystem>();
  std::printf("Authenticated telemetry on the backbone: %llu frames protected, "
              "%llu verified, %llu rejected\n",
              static_cast<unsigned long long>(security->frames_protected()),
              static_cast<unsigned long long>(security->frames_authenticated()),
              static_cast<unsigned long long>(security->frames_rejected()));

  // Middleware health after the drive: all partitions still running.
  auto& cockpit = vehicle->cockpit();
  for (std::size_t p = 0; p < cockpit.partition_count(); ++p) {
    const auto& part = cockpit.partition(p);
    std::printf("Partition '%s': %llu jobs, %llu faults\n", part.name().c_str(),
                static_cast<unsigned long long>(part.jobs_completed()),
                static_cast<unsigned long long>(part.fault_count()));
  }

  auto* obs = vehicle->find_subsystem<ObservabilitySubsystem>();
  std::printf("\nKernel dispatched %llu events for the whole commute.\n",
              static_cast<unsigned long long>(obs->metrics().counter_value(
                  obs->metrics().counter("sim.events_dispatched"))));
  if (obs->export_files("city_commute"))
    std::printf("Full observability snapshot: city_commute.metrics.json\n");
  return 0;
}

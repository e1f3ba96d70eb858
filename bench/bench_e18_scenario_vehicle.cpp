// Experiment E18: declarative scenarios through the composition root. The
// paper's integration argument — architecture means the whole vehicle, not
// one subsystem at a time — becomes testable once a text scenario can stand
// up plant + Fig. 1 network + cockpit middleware with pluggable fault,
// health, and observability subsystems. Two seeded campaigns run the same
// urban mission clean and with an injected fault sequence (partition crash,
// safety-CAN corruption bursts, bus-off); the faulted vehicle must end in a
// strictly escalated drive mode with less distance covered and less energy
// delivered. The scenario text itself round-trips losslessly, and same
// scenario + same seed means byte-identical result JSON — the property the
// CI determinism job checks end to end.
#include <cstdio>
#include <string>

#include "ev/config/scenario.h"
#include "ev/core/scenario.h"
#include "ev/core/subsystems.h"
#include "ev/faults/degradation.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using ev::config::CycleKind;
using ev::config::FaultEventSpec;
using ev::config::FaultKind;
using ev::config::ScenarioSpec;

ScenarioSpec clean_scenario(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "e18-clean";
  spec.drive.cycle = CycleKind::kUrban;
  spec.powertrain.seed = seed;
  spec.subsystems.obs = false;  // keep the campaign lean; obs adds no physics
  spec.subsystems.faults = true;  // mode machine armed, nothing injected
  spec.subsystems.health = true;
  return spec;
}

ScenarioSpec faulted_scenario(std::uint64_t seed) {
  ScenarioSpec spec = clean_scenario(seed);
  spec.name = "e18-faulted";
  spec.fault_seed = seed * 31 + 5;
  spec.faults = {
      FaultEventSpec{2.0, FaultKind::kPartitionCrash, "information", 0.0},
      FaultEventSpec{5.0, FaultKind::kBusCorrupt, "safety_can", 4.0},
      FaultEventSpec{6.0, FaultKind::kBusCorrupt, "safety_can", 4.0},
      FaultEventSpec{8.0, FaultKind::kBusOff, "safety_can", 0.05},
  };
  return spec;
}

struct Outcome {
  double distance_km = 0.0;
  double energy_out_wh = 0.0;
  ev::faults::DriveMode final_mode = ev::faults::DriveMode::kNormal;
  std::size_t injections = 0;
  std::uint64_t restarts = 0;
};

Outcome run(const ScenarioSpec& spec) {
  std::unique_ptr<ev::core::VehicleSystem> vehicle;
  const ev::core::ScenarioRunResult r = ev::core::run_scenario(spec, &vehicle);
  Outcome out;
  out.distance_km = r.cosim.cycle.distance_km;
  out.energy_out_wh = r.cosim.cycle.battery_energy_out_wh;
  auto* faults = vehicle->find_subsystem<ev::core::FaultsSubsystem>();
  out.final_mode = faults->degradation().mode();
  out.injections = faults->plan().injections().size();
  auto* health = vehicle->find_subsystem<ev::core::HealthSubsystem>();
  out.restarts = health->monitor().restarts();
  return out;
}

void run_experiment() {
  std::puts("E18 — whole-vehicle scenarios through the composition root: "
            "clean vs faulted urban mission\n");

  ev::util::Table table("seeded campaign (urban cycle, per-seed clean/faulted pair)",
                        {"seed", "scenario", "distance", "battery out", "final mode",
                         "injected", "restarts"});
  double clean_km = 0.0, faulted_km = 0.0;
  double clean_wh = 0.0, faulted_wh = 0.0;
  bool escalated_everywhere = true;
  const int runs = 2;
  struct SeedPair {
    Outcome clean;
    Outcome faulted;
  };
  // Each rung runs its clean/faulted vehicle pair on a private simulator
  // stack; folding in seed order keeps the table and means deterministic.
  evbench::run_seeded_campaign(
      7, 1, runs, evbench::default_jobs(),
      [](std::uint64_t seed, int) {
        return SeedPair{run(clean_scenario(seed)), run(faulted_scenario(seed))};
      },
      [&](SeedPair pair, std::uint64_t seed, int) {
        clean_km += pair.clean.distance_km / runs;
        faulted_km += pair.faulted.distance_km / runs;
        clean_wh += pair.clean.energy_out_wh / runs;
        faulted_wh += pair.faulted.energy_out_wh / runs;
        escalated_everywhere =
            escalated_everywhere && pair.faulted.final_mode > pair.clean.final_mode;
        for (const Outcome* o : {&pair.clean, &pair.faulted})
          table.add_row({std::to_string(seed), o == &pair.clean ? "clean" : "faulted",
                         ev::util::fmt(o->distance_km, 2) + " km",
                         ev::util::fmt(o->energy_out_wh, 0) + " Wh",
                         ev::faults::to_string(o->final_mode),
                         std::to_string(o->injections), std::to_string(o->restarts)});
      });
  table.print();

  // The scenario text is the experiment's interface: serialize the faulted
  // spec and prove the round trip is lossless.
  const ScenarioSpec spec = faulted_scenario(7);
  const bool lossless = ev::config::ScenarioSpec::from_text(spec.to_text()) == spec;

  evbench::set_gauge("e18.clean.distance_km", clean_km);
  evbench::set_gauge("e18.faulted.distance_km", faulted_km);
  evbench::set_gauge("e18.clean.battery_out_wh", clean_wh);
  evbench::set_gauge("e18.faulted.battery_out_wh", faulted_wh);
  evbench::set_gauge("e18.faulted.escalated", escalated_everywhere ? 1.0 : 0.0);
  evbench::set_gauge("e18.spec_roundtrip_lossless", lossless ? 1.0 : 0.0);

  std::printf("\nscenario text round trip lossless: %s\n", lossless ? "yes" : "NO");
  std::puts("expected shape: the faulted vehicle ends every seed in a "
            "strictly escalated mode (derated or limp-home), covers less "
            "distance, and draws less energy from the pack — degradation "
            "trades mission completion for continued safe operation instead "
            "of stopping at the first fault.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e18_scenario_vehicle");
}

// Experiment E4 (paper Fig. 4 + Section 2 "Electric Powertrain" /
// "Drive-by-wire"): energy flows of the full electric powertrain across
// drive cycles, and the range impact of regenerative braking — the paper's
// claim that recuperation "is essential to extend the driving range".
#include <cstdio>

#include "ev/powertrain/drive_cycle.h"
#include "ev/powertrain/simulation.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::powertrain;

PowertrainConfig make_config(bool regen) {
  PowertrainConfig cfg;
  cfg.regen.enabled = regen;
  cfg.seed = 11;
  return cfg;
}

void run_experiment() {
  std::puts("E4 — powertrain energy flows (Fig. 4) and regenerative braking\n");

  // --- Energy flow breakdown per cycle, regen on ------------------------------
  ev::util::Table flows("energy ledger per cycle (regeneration on)",
                        {"cycle", "distance", "drawn", "recuperated", "motor loss",
                         "friction loss", "aux", "consumption"});
  for (const DriveCycle& cycle :
       {DriveCycle::urban(), DriveCycle::suburban(), DriveCycle::highway()}) {
    PowertrainSimulation sim(make_config(true));
    const CycleResult r = sim.run_cycle(cycle);
    flows.add_row({cycle.name(), ev::util::fmt(r.distance_km, 2) + " km",
                   ev::util::fmt(r.battery_energy_out_wh, 0) + " Wh",
                   ev::util::fmt(r.regen_recovered_wh, 0) + " Wh",
                   ev::util::fmt(r.motor_loss_wh, 0) + " Wh",
                   ev::util::fmt(r.friction_brake_loss_wh, 0) + " Wh",
                   ev::util::fmt(r.aux_energy_wh, 0) + " Wh",
                   ev::util::fmt(r.consumption_wh_km, 1) + " Wh/km"});
  }
  flows.print();

  // --- Regeneration on/off: consumption and range -----------------------------
  ev::util::Table regen("regeneration impact per cycle",
                        {"cycle", "consumption regen-off", "consumption regen-on",
                         "saving", "range regen-off", "range regen-on",
                         "range gain"});
  for (const char* name : {"urban", "suburban", "highway"}) {
    const DriveCycle cycle = std::string(name) == "urban"
                                 ? DriveCycle::urban()
                                 : (std::string(name) == "suburban"
                                        ? DriveCycle::suburban()
                                        : DriveCycle::highway());
    PowertrainSimulation off_sim(make_config(false));
    PowertrainSimulation on_sim(make_config(true));
    const CycleResult off = off_sim.run_cycle(cycle);
    const CycleResult on = on_sim.run_cycle(cycle);
    const double saving = 1.0 - on.consumption_wh_km / off.consumption_wh_km;

    PowertrainSimulation range_off(make_config(false));
    PowertrainSimulation range_on(make_config(true));
    const double km_off = range_off.measure_range_km(cycle);
    const double km_on = range_on.measure_range_km(cycle);
    regen.add_row({name, ev::util::fmt(off.consumption_wh_km, 1) + " Wh/km",
                   ev::util::fmt(on.consumption_wh_km, 1) + " Wh/km",
                   ev::util::fmt_pct(saving), ev::util::fmt(km_off, 1) + " km",
                   ev::util::fmt(km_on, 1) + " km",
                   ev::util::fmt_pct(km_on / km_off - 1.0)});
  }
  regen.print();
  std::puts("expected shape: double-digit percentage range gain on stop-and-go "
            "urban driving, small gain on the highway (little braking to "
            "recuperate).\n");

  // --- DC-DC conversion losses (the 12 V rail of Fig. 4) ---------------------
  PowertrainSimulation sim(make_config(true));
  const CycleResult r = sim.run_cycle(DriveCycle::urban());
  evbench::set_gauge("e4.urban.consumption_wh_km", r.consumption_wh_km);
  evbench::set_gauge("e4.urban.regen_recovered_wh", r.regen_recovered_wh);
  std::printf("12 V auxiliary rail over urban cycle: %.0f Wh drawn from HV "
              "(load %.0f W through the DC-DC converter)\n\n",
              r.aux_energy_wh, sim.config().aux_power_w);
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e4_powertrain_energy");
}

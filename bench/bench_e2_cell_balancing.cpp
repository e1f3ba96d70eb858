// Experiment E2 (paper Fig. 2 + Section 2 "Battery Pack"): passive vs
// active cell balancing on the hierarchical BMS. Measures equalization
// time, energy dissipated vs transferred, resulting usable pack energy, and
// the driving-range consequence — the paper's claim that active balancing
// "avoids the waste of energy, increasing the driving range as well as the
// lifetime of the battery".
#include <cstdio>

#include "ev/bms/battery_manager.h"
#include "ev/powertrain/simulation.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::battery;
using namespace ev::bms;

struct BalancingOutcome {
  double hours_to_balance = 0.0;
  double wasted_wh = 0.0;
  double usable_wh = 0.0;
  double min_soc = 0.0;
};

BalancingOutcome run_balancing(BalancingKind kind, std::uint64_t seed) {
  ev::util::Rng rng(seed);
  PackConfig pc;
  pc.module_count = 4;
  pc.cells_per_module = 12;
  pc.initial_soc = 0.85;
  pc.soc_spread_sigma = 0.03;  // a visibly imbalanced pack
  Pack pack(pc, rng);

  BmsConfig bc;
  bc.balancing = kind;
  bc.initial_soc_estimate = 0.85;
  bc.estimator = EstimatorKind::kVoltageCorrected;
  BatteryManager bms(pack, bc);

  BalancingOutcome out;
  const double dt = 1.0;
  double t = 0.0;
  const double horizon_s = 200.0 * 3600.0;
  while (t < horizon_s) {
    (void)pack.step(0.0, dt);
    const BmsReport r = bms.step(pack, dt, rng);
    t += dt;
    if (r.balanced && pack.max_soc() - pack.min_soc() < 0.006) break;
    if (kind == BalancingKind::kNone) break;  // nothing will ever change
  }
  out.hours_to_balance = t / 3600.0;
  out.wasted_wh = (pack.total_bleed_energy_j() + pack.total_transfer_loss_j()) / 3600.0;
  out.usable_wh = pack.usable_energy_wh();
  out.min_soc = pack.min_soc();
  return out;
}

double range_with_usable(double usable_wh) {
  // Convert usable energy into urban driving range at the consumption the
  // E4 powertrain measures (~160 Wh/km with regeneration).
  constexpr double kUrbanWhPerKm = 160.0;
  return usable_wh / kUrbanWhPerKm;
}

void run_experiment() {
  std::puts("E2 — cell balancing: passive (bleed) vs active (charge transfer)\n");
  std::puts("pack: 48 series cells, 3% initial SoC spread sigma, idle during "
            "equalization\n");

  ev::util::Table table("balancing comparison (seed-averaged over 3 packs)",
                        {"policy", "equalization time", "energy wasted",
                         "usable pack energy", "weakest cell SoC", "urban range"});
  for (BalancingKind kind :
       {BalancingKind::kNone, BalancingKind::kPassive, BalancingKind::kActive}) {
    BalancingOutcome mean;
    const int runs = 3;
    // Per-seed packs equalize independently; the parallel campaign folds
    // their outcomes in seed order, so the averages match the serial sweep.
    evbench::run_seeded_campaign(
        1, 1, runs, evbench::default_jobs(),
        [kind](std::uint64_t seed, int) { return run_balancing(kind, seed); },
        [&](BalancingOutcome o, std::uint64_t, int) {
          mean.hours_to_balance += o.hours_to_balance / runs;
          mean.wasted_wh += o.wasted_wh / runs;
          mean.usable_wh += o.usable_wh / runs;
          mean.min_soc += o.min_soc / runs;
        });
    if (kind == BalancingKind::kActive) {
      evbench::set_gauge("e2.active.usable_wh", mean.usable_wh);
      evbench::set_gauge("e2.active.hours_to_balance", mean.hours_to_balance);
    }
    const char* name = kind == BalancingKind::kNone
                           ? "none"
                           : (kind == BalancingKind::kPassive ? "passive" : "active");
    table.add_row({name,
                   kind == BalancingKind::kNone
                       ? "-"
                       : ev::util::fmt(mean.hours_to_balance, 2) + " h",
                   ev::util::fmt(mean.wasted_wh, 1) + " Wh",
                   ev::util::fmt(mean.usable_wh, 0) + " Wh",
                   ev::util::fmt_pct(mean.min_soc),
                   ev::util::fmt(range_with_usable(mean.usable_wh), 1) + " km"});
  }
  table.print();
  std::puts("expected shape: active wastes only converter losses, lifts the "
            "weakest cell, and extends usable energy/range; passive burns the "
            "full imbalance in bleed resistors.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e2_cell_balancing");
}

// Ablation experiments over evsys design choices (see DESIGN.md §5):
//  A1a  SoC-observer gain: drift correction vs noise sensitivity.
//  A1b  Balancing tolerance: equalization time vs energy wasted.
//  A1c  AVB credit-based-shaper idle slope: class-A goodput cap vs
//       best-effort throughput.
//  A1d  TT-Ethernet gate window width: protected latency vs bandwidth
//       sacrificed to the guard window.
//  A1e  Cache associativity: abstract WCET bound vs hardware cost.
#include <cstdio>
#include <memory>

#include <algorithm>

#include "ev/battery/module.h"
#include "ev/bms/balancing.h"
#include "ev/bms/soc_estimator.h"
#include "ev/network/ethernet.h"
#include "ev/sim/simulator.h"
#include "ev/timing/analysis.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using ev::sim::Simulator;
using ev::sim::Time;

// --------------------------------------------------------------- A1a ----

void ablation_observer_gain() {
  ev::util::Table table("A1a — voltage-corrected observer gain",
                        {"gain", "steady error vs bias", "noise-induced stddev"});
  auto curve = std::make_shared<const ev::battery::OcvCurve>(ev::battery::OcvCurve::nmc());
  for (double gain : {0.002, 0.01, 0.05, 0.2, 1.0}) {
    // Bias test: sensed current carries +0.05 A although the cell is idle.
    ev::bms::VoltageCorrectedEstimator biased(40.0, 0.5, curve, 0.0015, gain);
    const double v_true = curve->voltage(0.5);
    for (int i = 0; i < 7200; ++i) biased.update(0.05, v_true, 1.0);
    const double bias_error = std::abs(biased.soc() - 0.5);

    // Noise test: perfect current, 5 mV voltage noise.
    ev::bms::VoltageCorrectedEstimator noisy(40.0, 0.5, curve, 0.0015, gain);
    ev::util::Rng rng(5);
    ev::util::RunningStats wander;
    for (int i = 0; i < 7200; ++i) {
      noisy.update(0.0, v_true + rng.normal(0.0, 5e-3), 1.0);
      if (i > 3600) wander.add(noisy.soc());
    }
    table.add_row({ev::util::fmt(gain, 3), ev::util::fmt(bias_error, 5),
                   ev::util::fmt(wander.stddev(), 5)});
  }
  table.print();
  std::puts("shape: higher gain kills sensor-bias drift but amplifies voltage "
            "noise — the classic observer trade-off; the default 0.02 sits in "
            "the flat middle.\n");
}

// --------------------------------------------------------------- A1b ----

void ablation_balancing_tolerance() {
  ev::util::Table table("A1b — passive balancing tolerance",
                        {"tolerance", "time to converge", "energy bled"});
  for (double tol : {0.002, 0.005, 0.01, 0.02}) {
    ev::battery::CellParameters p;
    p.capacity_ah = 10.0;
    ev::battery::SeriesModule m({{p, 0.60}, {p, 0.56}, {p, 0.53}},
                                ev::battery::OcvCurve::nmc());
    ev::bms::PassiveBalancer policy(tol);
    double t_s = 0.0;
    while (t_s < 400000.0 && m.soc_spread() > tol) {
      std::vector<double> est;
      for (std::size_t i = 0; i < m.cell_count(); ++i) est.push_back(m.cell(i).soc());
      policy.decide(est, m, *std::min_element(est.begin(), est.end()));
      (void)m.step(0.0, 10.0);
      t_s += 10.0;
    }
    table.add_row({ev::util::fmt(tol, 3), ev::util::fmt(t_s / 3600.0, 1) + " h",
                   ev::util::fmt(m.bleed_energy_j() / 3600.0, 1) + " Wh"});
  }
  table.print();
  std::puts("shape: a tighter tolerance costs little extra energy (the "
            "imbalance itself fixes the bleed total) but extends the tail of "
            "the equalization time.\n");
}

// --------------------------------------------------------------- A1c ----

void ablation_cbs_slope() {
  ev::util::Table table("A1c — AVB credit-based shaper idle slope",
                        {"idle slope", "class-A goodput", "best-effort goodput"});
  for (double slope : {0.10, 0.30, 0.50, 0.75}) {
    Simulator sim;
    ev::network::EthernetSwitch sw(sim, "eth", 2);
    sw.attach(1, 0);
    sw.add_route(0x1, ev::network::EthRoute{{1}, ev::network::EthClass::kAvbClassA});
    sw.add_route(0x2, ev::network::EthRoute{{1}, ev::network::EthClass::kBestEffort});
    sw.enable_cbs(1, slope);
    std::size_t class_a_bytes = 0;
    std::size_t be_bytes = 0;
    sw.subscribe([&](const ev::network::Frame& f, Time) {
      if (f.id == 0x1)
        class_a_bytes += f.payload_size;
      else
        be_bytes += f.payload_size;
    });
    // Both classes offered at saturation.
    sim.schedule_periodic(Time{}, Time::us(60), [&] {
      if (sw.egress_depth(1) < 8) {
        ev::network::Frame a;
        a.id = 0x1;
        a.source = 1;
        a.payload_size = 800;
        (void)sw.send(a);
        ev::network::Frame b;
        b.id = 0x2;
        b.source = 1;
        b.payload_size = 800;
        (void)sw.send(b);
      }
    });
    sim.run_until(Time::ms(500));
    evbench::count_kernel(sim);
    evbench::set_gauge("a1.cbs.class_a_mbit_s", class_a_bytes * 8.0 / 0.5 / 1e6);
    table.add_row({ev::util::fmt_pct(slope),
                   ev::util::fmt(class_a_bytes * 8.0 / 0.5 / 1e6, 1) + " Mbit/s",
                   ev::util::fmt(be_bytes * 8.0 / 0.5 / 1e6, 1) + " Mbit/s"});
  }
  table.print();
  std::puts("shape: the idle slope is a hard bandwidth contract — class A "
            "gets at most its reservation and best effort absorbs the rest.\n");
}

// --------------------------------------------------------------- A1d ----

void ablation_gate_window() {
  ev::util::Table table("A1d — TT gate window width (1 ms cycle)",
                        {"TT window", "TT mean latency", "best-effort goodput"});
  for (double window_us : {50.0, 100.0, 200.0, 400.0}) {
    Simulator sim;
    ev::network::EthernetSwitch sw(sim, "eth", 2);
    sw.attach(1, 0);
    sw.add_route(0x1, ev::network::EthRoute{{1}, ev::network::EthClass::kTimeTriggered});
    sw.add_route(0x2, ev::network::EthRoute{{1}, ev::network::EthClass::kBestEffort});
    ev::network::GateSchedule gs;
    gs.cycle_s = 1e-3;
    gs.windows.push_back({0.0, window_us * 1e-6, true});
    gs.windows.push_back({window_us * 1e-6, 1e-3 - window_us * 1e-6, false});
    sw.set_gate_schedule(1, gs);
    ev::util::SampleSeries tt_latency;
    std::size_t be_bytes = 0;
    sw.subscribe([&](const ev::network::Frame& f, Time at) {
      if (f.id == 0x1)
        tt_latency.add((at - f.created).to_seconds());
      else
        be_bytes += f.payload_size;
    });
    sim.schedule_periodic(Time{}, Time::ms(1), [&] {
      ev::network::Frame f;
      f.id = 0x1;
      f.source = 1;
      f.payload_size = 100;
      (void)sw.send(f);
    });
    sim.schedule_periodic(Time::us(7), Time::us(100), [&] {
      if (sw.egress_depth(1) < 8) {
        ev::network::Frame f;
        f.id = 0x2;
        f.source = 1;
        f.payload_size = 1500;
        (void)sw.send(f);
      }
    });
    sim.run_until(Time::ms(500));
    evbench::count_kernel(sim);
    table.add_row({ev::util::fmt(window_us, 0) + " us",
                   ev::util::fmt(tt_latency.mean() * 1e6, 1) + " us",
                   ev::util::fmt(be_bytes * 8.0 / 0.5 / 1e6, 1) + " Mbit/s"});
  }
  table.print();
  std::puts("shape: the TT latency is set by the schedule, not the load; every "
            "microsecond of protected window is bandwidth taken from best "
            "effort — size the window to the TT demand, no larger.\n");
}

// --------------------------------------------------------------- A1e ----

void ablation_cache_ways() {
  ev::util::Table table("A1e — cache associativity vs WCET bound (LRU, 16 lines total)",
                        {"geometry", "WCET bound", "observed max"});
  ev::util::Rng gen_rng(3);
  ev::timing::ProgramGenConfig gen;
  gen.segments = 10;
  const ev::timing::Program prog = ev::timing::generate_program(gen, gen_rng);
  struct Geometry {
    std::size_t sets, ways;
  };
  for (const Geometry g : {Geometry{16, 1}, Geometry{8, 2}, Geometry{4, 4}, Geometry{2, 8}}) {
    const ev::timing::CacheConfig cfg = {g.sets, g.ways, 64, 1, 20,
                                         ev::timing::Replacement::kLru};
    const std::int64_t bound =
        ev::timing::wcet_bound_cycles(prog, cfg, ev::timing::must_analysis(prog, cfg));
    ev::util::Rng rng(9);
    const std::int64_t observed = ev::timing::observed_wcet_cycles(prog, cfg, 200, rng);
    table.add_row({std::to_string(g.sets) + "x" + std::to_string(g.ways),
                   std::to_string(bound), std::to_string(observed)});
  }
  table.print();
  std::puts("shape: associativity helps the *provable* bound (fewer conflict "
            "NC classifications) even when the observed behaviour barely "
            "moves — predictability and performance are different axes.\n");
}

void run_experiment() {
  std::puts("A1 — ablations over evsys design choices\n");
  ablation_observer_gain();
  ablation_balancing_tolerance();
  ablation_cbs_slope();
  ablation_gate_window();
  ablation_cache_ways();
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("a1_ablations");
}

// Experiment E19: static analysis cross-validated against simulation. The
// point of `evsys check` is that its bounds are safe — a worst-case frame
// response or pub/sub delivery bound computed without running the vehicle
// must dominate anything the co-simulation actually observes. This
// experiment runs analyzer and simulation over the same scenarios across a
// seed ladder and compares every static bound against the corresponding
// observed maximum from the observability histograms (the shared
// ev::analysis::bound_checks oracle): per-bus end-to-end frame latency,
// cockpit pub/sub delivery latency, and gateway hop latency.
// Any observation above its bound is a soundness violation and fails the
// binary. The margin column shows how conservative each bound is.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ev/analysis/analyzer.h"
#include "ev/analysis/oracle.h"
#include "ev/config/scenario.h"
#include "ev/core/scenario.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using ev::analysis::Report;
using ev::config::ScenarioSpec;

ScenarioSpec scenario(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "e19-urban";
  spec.drive.cycle = ev::config::CycleKind::kUrban;
  spec.powertrain.seed = seed;
  spec.subsystems.obs = true;      // the histograms are the ground truth
  spec.subsystems.health = true;   // heartbeat runnables included in the RTA
  spec.subsystems.security = true; // secure telemetry frames on the chassis
  return spec;
}

/// Analyzer + simulation over one seed; returns every comparable pair.
std::vector<ev::analysis::BoundCheck> cross_validate(std::uint64_t seed) {
  const ScenarioSpec spec = scenario(seed);
  const ev::analysis::VehicleModel model = ev::analysis::extract_model(spec);
  const Report report = ev::analysis::analyze(model);
  std::unique_ptr<ev::core::VehicleSystem> vehicle;
  (void)ev::core::run_scenario(spec, &vehicle);
  return ev::analysis::bound_checks(model, report, *vehicle, spec.faults);
}

int run_experiment() {
  std::puts("E19 — static analyzer bounds vs simulated reality: every "
            "`evsys check` worst case must dominate the observed maximum\n");

  ev::util::Table table("per-seed bound vs observation (urban cycle)",
                        {"seed", "subject", "static bound", "observed max",
                         "margin", "samples", "sound"});
  int violations = 0;
  std::size_t compared = 0;
  double min_margin_us = 1e18;
  const int runs = 3;
  evbench::run_seeded_campaign(7, 1, runs, [&](std::uint64_t seed, int) {
    for (const ev::analysis::BoundCheck& c : cross_validate(seed)) {
      const double margin = c.bound_us - c.observed_us;
      const bool sound = c.sound();
      if (!sound) ++violations;
      ++compared;
      min_margin_us = std::min(min_margin_us, margin);
      table.add_row({std::to_string(seed), c.subject,
                     ev::util::fmt(c.bound_us, 1) + " us",
                     ev::util::fmt(c.observed_us, 1) + " us",
                     ev::util::fmt(margin, 1) + " us",
                     std::to_string(c.samples), sound ? "yes" : "NO"});
    }
  });
  table.print();

  evbench::set_gauge("e19.comparisons", static_cast<double>(compared));
  evbench::set_gauge("e19.violations", static_cast<double>(violations));
  evbench::set_gauge("e19.min_margin_us", min_margin_us);

  std::printf("\ncomparisons: %zu, violations: %d, tightest margin: %.1f us\n",
              compared, violations, min_margin_us);
  std::puts("expected shape: zero violations — the static bounds are safe "
            "(pessimistic but finite), so the analyzer can gate deployment "
            "without ever simulating the scenario.\n");
  return violations;
}

void bm_extract_model(benchmark::State& state) {
  const ScenarioSpec spec = scenario(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(ev::analysis::extract_model(spec));
}
BENCHMARK(bm_extract_model)->Unit(benchmark::kMicrosecond);

void bm_analyze(benchmark::State& state) {
  const ScenarioSpec spec = scenario(7);
  const ev::analysis::VehicleModel model = ev::analysis::extract_model(spec);
  for (auto _ : state)
    benchmark::DoNotOptimize(ev::analysis::analyze(model));
}
BENCHMARK(bm_analyze)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const int violations = run_experiment();
  const int rc = evbench::finish("e19_static_vs_sim", argc, argv);
  return violations > 0 ? 1 : rc;
}

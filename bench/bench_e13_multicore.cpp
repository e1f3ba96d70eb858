// Experiment E13 (paper Section 3.2 "Multi-core"): consolidation capacity
// of multi-core ECUs. How many software functions can one ECU host as the
// core count grows, under time-triggered partitioned placement with shared-
// resource interference — and where interference erodes the scaling.
#include <cstdio>

#include "ev/core/architecture.h"
#include "ev/ecu/multicore.h"
#include "ev/util/rng.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::ecu;

std::vector<HostedFunction> function_pool(std::size_t n) {
  // Mixed workload shaped like the reference EV network: periods 5..200 ms,
  // utilizations 2..20%.
  std::vector<HostedFunction> fns;
  const std::int64_t periods[] = {5000, 10000, 20000, 50000, 100000, 200000};
  ev::util::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    HostedFunction f;
    f.name = "fn" + std::to_string(i);
    f.period_us = periods[rng.uniform_int(0, 5)];
    f.wcet_us = static_cast<std::int64_t>(
        static_cast<double>(f.period_us) * rng.uniform(0.02, 0.2));
    fns.push_back(std::move(f));
  }
  return fns;
}

void run_experiment() {
  std::puts("E13 — functions hosted per ECU vs core count and interference\n");

  const auto pool = function_pool(256);
  ev::util::Table table("hosted-function capacity (80% per-core bound)",
                        {"cores", "no interference", "8%/core interference",
                         "25%/core interference", "scaling vs 1 core (8%)"});
  std::size_t base_8 = 0;
  for (std::size_t cores : {1u, 2u, 4u, 8u, 16u}) {
    auto capacity_with = [&](double factor) {
      MulticoreConfig cfg;
      cfg.core_count = cores;
      cfg.interference_factor = factor;
      return MulticoreEcu(cfg).capacity(pool);
    };
    const std::size_t none = capacity_with(0.0);
    const std::size_t mid = capacity_with(0.08);
    const std::size_t high = capacity_with(0.25);
    if (cores == 1) base_8 = mid;
    if (cores == 8)
      evbench::set_gauge("e13.capacity.8core_8pct", static_cast<double>(mid));
    table.add_row({std::to_string(cores), std::to_string(none), std::to_string(mid),
                   std::to_string(high),
                   ev::util::fmt(static_cast<double>(mid) / static_cast<double>(base_8), 2) + "x"});
  }
  table.print();

  // ECU count needed for the reference network at each core count.
  ev::util::Table ecus("ECUs needed for the reference EV network (scale 4)",
                       {"cores per ECU", "ECUs needed"});
  const auto net = ev::core::reference_function_network(4);
  std::vector<HostedFunction> net_fns;
  for (const auto& f : net.functions)
    net_fns.push_back(HostedFunction{f.name, f.period_us, f.wcet_us});
  for (std::size_t cores : {1u, 2u, 4u, 8u}) {
    MulticoreConfig cfg;
    cfg.core_count = cores;
    std::size_t ecu_count = 0;
    std::size_t placed_total = 0;
    std::vector<HostedFunction> remaining = net_fns;
    while (!remaining.empty() && ecu_count < 200) {
      MulticoreEcu ecu(cfg);
      const PlacementResult r = ecu.place(remaining);
      if (r.placed_count == 0) break;
      std::vector<HostedFunction> next;
      for (std::size_t i = 0; i < remaining.size(); ++i)
        if (r.core_of[i] < 0) next.push_back(remaining[i]);
      placed_total += r.placed_count;
      remaining = std::move(next);
      ++ecu_count;
    }
    (void)placed_total;
    // Overwritten per core count; the snapshot keeps the 8-core value.
    evbench::set_gauge("e13.reference_net.ecus_needed",
                       static_cast<double>(ecu_count));
    ecus.add_row({std::to_string(cores), std::to_string(ecu_count)});
  }
  ecus.print();
  std::puts("expected shape: capacity grows with the core count until the "
            "interference inflation eats the gain — the motivation for "
            "predictable multi-core OS design the paper cites ([19],[20]).\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e13_multicore");
}

// Experiment E8 (paper Section 3, "federated -> integrated"): deploy the
// same functional content in both architecture styles and compare ECU
// count, wiring, hardware cost, utilization, and signal locality — the
// quantitative case for the consolidation paradigm shift. Also sweeps the
// system size to show how the gap grows as vehicles gain functions.
#include <cstdio>

#include "ev/core/evaluation.h"
#include "ev/core/synthesis.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::core;

void run_experiment() {
  std::puts("E8 — federated (Fig. 1) vs integrated (consolidated) architecture\n");

  const FunctionNetwork net = reference_function_network();
  const ArchitectureMetrics fed = evaluate(synthesize_federated(net));
  const ArchitectureMetrics integ = evaluate(synthesize_integrated(net));

  ev::util::Table cmp("reference EV function network (" +
                          std::to_string(net.functions.size()) + " functions)",
                      {"metric", "federated", "integrated", "ratio"});
  auto ratio = [](double a, double b) { return ev::util::fmt(a / b, 2) + "x"; };
  cmp.add_row({"ECU count", std::to_string(fed.ecu_count), std::to_string(integ.ecu_count),
               ratio(static_cast<double>(fed.ecu_count), static_cast<double>(integ.ecu_count))});
  cmp.add_row({"buses + gateways", std::to_string(fed.bus_count + fed.gateway_count),
               std::to_string(integ.bus_count + integ.gateway_count), "-"});
  cmp.add_row({"wiring", ev::util::fmt(fed.wiring_m, 1) + " m",
               ev::util::fmt(integ.wiring_m, 1) + " m",
               ratio(fed.wiring_m, integ.wiring_m)});
  cmp.add_row({"hardware cost", ev::util::fmt(fed.hardware_cost, 1),
               ev::util::fmt(integ.hardware_cost, 1),
               ratio(fed.hardware_cost, integ.hardware_cost)});
  cmp.add_row({"mean ECU utilization", ev::util::fmt_pct(fed.mean_utilization),
               ev::util::fmt_pct(integ.mean_utilization), "-"});
  cmp.add_row({"networked signals", std::to_string(fed.cross_ecu_signals),
               std::to_string(integ.cross_ecu_signals), "-"});
  cmp.add_row({"ECU-local signals", std::to_string(fed.local_signals),
               std::to_string(integ.local_signals), "-"});
  cmp.add_row({"worst bus load", ev::util::fmt_pct(fed.worst_bus_load, 2),
               ev::util::fmt_pct(integ.worst_bus_load, 2), "-"});
  cmp.print();

  evbench::set_gauge("e8.federated.ecus", static_cast<double>(fed.ecu_count));
  evbench::set_gauge("e8.integrated.ecus", static_cast<double>(integ.ecu_count));

  ev::util::Table sweep("scaling: ECU count vs functional content",
                        {"functions", "federated ECUs", "integrated ECUs",
                         "integrated cost saving"});
  for (std::size_t scale : {1u, 2u, 4u, 8u}) {
    const FunctionNetwork n = reference_function_network(scale);
    const ArchitectureMetrics f = evaluate(synthesize_federated(n));
    const ArchitectureMetrics i = evaluate(synthesize_integrated(n));
    sweep.add_row({std::to_string(n.functions.size()), std::to_string(f.ecu_count),
                   std::to_string(i.ecu_count),
                   ev::util::fmt_pct(1.0 - i.hardware_cost / f.hardware_cost)});
  }
  sweep.print();

  // Middleware's role: without partition-based isolation, ASIL segregation
  // forces extra boxes.
  IntegratedOptions no_mw;
  no_mw.partitioned_middleware = false;
  const ArchitectureMetrics raw = evaluate(synthesize_integrated(net, no_mw));
  std::printf("integrated WITHOUT partitioned middleware: %zu ECUs (vs %zu with) — "
              "the middleware's isolation is what permits full consolidation.\n\n",
              raw.ecu_count, integ.ecu_count);
  std::puts("expected shape: consolidation cuts ECU count by 3-5x and wiring/cost "
            "substantially, at much higher (but bounded) per-ECU utilization.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e8_consolidation");
}

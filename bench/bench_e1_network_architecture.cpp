// Experiment E1 (paper Fig. 1): the heterogeneous five-bus in-vehicle
// network with a central gateway. Regenerates per-bus utilization/latency
// and the cross-domain (through-gateway) end-to-end latencies under the
// representative message set, at increasing load.
#include <cstdio>
#include <vector>

#include "ev/network/topology.h"
#include "ev/obs/kernel_counters.h"
#include "ev/sim/simulator.h"
#include "ev/util/stats.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::network;
using ev::sim::Simulator;
using ev::sim::Time;

void run_experiment() {
  std::puts("E1 — Fig. 1 heterogeneous in-vehicle network (30 s simulated)\n");

  Simulator sim;
  const ev::obs::KernelCounters kernel(evbench::metrics());  // sim.* lead the snapshot
  Figure1Network net(sim);
  // The buses keep a constant-size latency summary; the p99 column needs
  // every sample, so this 30 s run collects its own.
  const std::vector<Bus*> all = net.buses();
  std::vector<ev::util::SampleSeries> samples(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    Bus* bus = all[i];
    bus->attach_observer(evbench::metrics());
    bus->subscribe([&series = samples[i]](const Frame& f, Time at) {
      series.add((at - f.created).to_seconds());
    });
  }
  net.start();
  sim.run_until(Time::s(30));
  kernel.add(evbench::metrics(), sim);

  ev::util::Table buses("per-bus load and latency",
                        {"bus", "bit rate", "utilization", "frames delivered",
                         "mean latency", "p99 latency"});
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Bus* bus = all[i];
    buses.add_row({bus->name(), ev::util::fmt_si(bus->bit_rate(), 1) + "bit/s",
                   ev::util::fmt_pct(bus->utilization(), 2),
                   std::to_string(bus->delivered_count()),
                   ev::util::fmt(ev::util::summarize(bus->latency()).mean * 1e3, 3) + " ms",
                   ev::util::fmt(samples[i].percentile(99) * 1e3, 3) + " ms"});
  }
  buses.print();

  ev::util::Table flows("cross-domain flows through the central gateway",
                        {"flow", "samples", "mean e2e", "max e2e"});
  for (const auto& [name, stats] : net.flow_latency()) {
    const ev::util::SeriesSummary flow = ev::util::summarize(stats);
    flows.add_row({name, std::to_string(flow.count),
                   ev::util::fmt(flow.mean * 1e3, 3) + " ms",
                   ev::util::fmt(flow.max * 1e3, 3) + " ms"});
  }
  flows.print();
  std::printf("gateway: %zu frames forwarded, %zu dropped\n\n",
              net.gateway().forwarded_count(), net.gateway().dropped_count());
  evbench::set_gauge("e1.gateway.forwarded",
                     static_cast<double>(net.gateway().forwarded_count()));
  evbench::set_gauge("e1.gateway.dropped",
                     static_cast<double>(net.gateway().dropped_count()));

  // Load sweep: utilization and worst flow latency vs message-rate scale.
  ev::util::Table sweep("load sweep (message rate scale)",
                        {"scale", "safety CAN util", "chassis FR util",
                         "worst cross-domain e2e"});
  for (double scale : {0.5, 1.0, 2.0, 4.0}) {
    Simulator s2;
    Figure1Config cfg;
    cfg.load_scale = scale;
    Figure1Network n2(s2, cfg);
    n2.start();
    s2.run_until(Time::s(10));
    double worst = 0.0;
    for (const auto& [name, stats] : n2.flow_latency())
      worst = std::max(worst, ev::util::summarize(stats).max);
    sweep.add_row({ev::util::fmt(scale, 1),
                   ev::util::fmt_pct(n2.safety_can().utilization(), 2),
                   ev::util::fmt_pct(n2.chassis_flexray().utilization(), 2),
                   ev::util::fmt(worst * 1e3, 3) + " ms"});
  }
  sweep.print();
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e1_network_architecture");
}

// Experiment E7 (paper Section 3.1 "Protocols"): the bandwidth hierarchy of
// automotive buses. The paper quotes FlexRay at 10 Mbit/s and Ethernet at
// "100 Mbit/s and more" as the successor candidates; this experiment
// measures achievable goodput and queueing latency of CAN, FlexRay, and
// switched Ethernet under saturating load, plus the protocol efficiency
// (payload vs on-the-wire bits) per frame size.
#include <cstdio>

#include "ev/network/can.h"
#include "ev/network/ethernet.h"
#include "ev/network/flexray.h"
#include "ev/sim/simulator.h"
#include "ev/util/stats.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::network;
using ev::sim::Simulator;
using ev::sim::Time;

struct Goodput {
  double mbit_s = 0.0;
  double mean_latency_ms = 0.0;
};

Goodput saturate_can(bool observed = false) {
  Simulator sim;
  CanBus bus(sim, "can", 500e3);
  bus.subscribe([](const Frame&, Time) {});
  // Offer more than the bus can carry; keep the queue primed.
  sim.schedule_periodic(Time{}, Time::us(200), [&] {
    if (bus.queue_depth() < 4) {
      Frame f;
      f.id = 0x100;
      f.payload_size = 8;
      (void)bus.send(f);
    }
  });
  sim.run_until(Time::s(10));
  if (observed) evbench::count_kernel(sim);
  return Goodput{static_cast<double>(bus.delivered_payload_bytes()) * 8.0 / 10.0 / 1e6,
                 ev::util::summarize(bus.latency()).mean * 1e3};
}

Goodput saturate_flexray(bool observed = false) {
  Simulator sim;
  FlexRayConfig cfg;
  // All 16 static slots in use, 32-byte payloads.
  cfg.static_payload_bytes = 32;
  for (std::uint32_t k = 0; k < 16; ++k)
    cfg.static_slots.push_back({k, static_cast<NodeId>(k), 32});
  cfg.minislot_count = 20;
  FlexRayBus bus(sim, "flexray", cfg);
  bus.subscribe([](const Frame&, Time) {});
  bus.start();
  sim.schedule_periodic(Time::us(1), Time::seconds(bus.cycle_time_s()), [&] {
    for (std::uint32_t k = 0; k < 16; ++k) {
      Frame f;
      f.id = k;
      (void)bus.send(f);
    }
  });
  sim.run_until(Time::s(10));
  if (observed) evbench::count_kernel(sim);
  return Goodput{static_cast<double>(bus.delivered_payload_bytes()) * 8.0 / 10.0 / 1e6,
                 ev::util::summarize(bus.latency()).mean * 1e3};
}

Goodput saturate_ethernet(bool observed = false) {
  Simulator sim;
  EthernetSwitch sw(sim, "eth", 2);
  sw.attach(1, 0);
  sw.add_route(0x1, EthRoute{{1}, EthClass::kBestEffort});
  sw.subscribe([](const Frame&, Time) {});
  // Full-size frames back to back.
  sim.schedule_periodic(Time{}, Time::us(120), [&] {
    if (sw.egress_depth(1) < 4) {
      Frame f;
      f.id = 0x1;
      f.source = 1;
      f.payload_size = 1500;
      (void)sw.send(f);
    }
  });
  sim.run_until(Time::s(10));
  if (observed) evbench::count_kernel(sim);
  return Goodput{static_cast<double>(sw.delivered_payload_bytes()) * 8.0 / 10.0 / 1e6,
                 ev::util::summarize(sw.latency()).mean * 1e3};
}

void run_experiment() {
  std::puts("E7 — protocol bandwidth hierarchy under saturating load (10 s)\n");
  ev::util::Table table("achievable goodput",
                        {"bus", "nominal rate", "measured goodput", "efficiency",
                         "mean frame latency"});
  const Goodput can = saturate_can(/*observed=*/true);
  table.add_row({"CAN", "0.5 Mbit/s", ev::util::fmt(can.mbit_s, 3) + " Mbit/s",
                 ev::util::fmt_pct(can.mbit_s / 0.5),
                 ev::util::fmt(can.mean_latency_ms, 3) + " ms"});
  const Goodput fr = saturate_flexray(/*observed=*/true);
  table.add_row({"FlexRay", "10 Mbit/s", ev::util::fmt(fr.mbit_s, 3) + " Mbit/s",
                 ev::util::fmt_pct(fr.mbit_s / 10.0),
                 ev::util::fmt(fr.mean_latency_ms, 3) + " ms"});
  const Goodput eth = saturate_ethernet(/*observed=*/true);
  table.add_row({"Ethernet", "100 Mbit/s", ev::util::fmt(eth.mbit_s, 3) + " Mbit/s",
                 ev::util::fmt_pct(eth.mbit_s / 100.0),
                 ev::util::fmt(eth.mean_latency_ms, 3) + " ms"});
  table.print();
  evbench::set_gauge("e7.can.goodput_mbit_s", can.mbit_s);
  evbench::set_gauge("e7.flexray.goodput_mbit_s", fr.mbit_s);
  evbench::set_gauge("e7.ethernet.goodput_mbit_s", eth.mbit_s);

  ev::util::Table eff("per-frame protocol efficiency (payload bits / wire bits)",
                      {"payload bytes", "CAN", "FlexRay", "Ethernet"});
  for (std::size_t n : {1u, 8u, 16u, 64u, 256u, 1500u}) {
    auto pct = [&](double num, double den) { return ev::util::fmt_pct(num / den); };
    std::string can_cell = n <= 8 ? pct(8.0 * n, CanBus::frame_bits(n)) : "n/a";
    std::string fr_cell =
        n <= 254 ? pct(8.0 * n, FlexRayBus::frame_bits(n)) : "n/a";
    eff.add_row({std::to_string(n), can_cell, fr_cell,
                 pct(8.0 * n, EthernetSwitch::frame_bits(n))});
  }
  eff.print();
  std::puts("expected shape: goodput ordering CAN < FlexRay < Ethernet, roughly "
            "tracking the 0.5 / 10 / 100 Mbit/s nominal rates minus protocol "
            "overhead; small payloads are expensive on every protocol.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e7_protocol_bandwidth");
}

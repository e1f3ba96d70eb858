// Experiment E5 (paper Section 3.1 "Time-triggered Scheduling"): determinism
// of event-triggered vs time-triggered communication for EV control
// traffic. The same periodic message set runs on (a) CAN with priority
// arbitration, (b) FlexRay static slots with schedule-synchronized senders,
// and (c) time-triggered Ethernet (time-aware gates). Latency mean/max and
// jitter are compared while background load rises.
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "ev/network/can.h"
#include "ev/network/ethernet.h"
#include "ev/network/flexray.h"
#include "ev/sim/simulator.h"
#include "ev/util/rng.h"
#include "ev/util/stats.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::network;
using ev::sim::Simulator;
using ev::sim::Time;

struct LatencyResult {
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double jitter_ms = 0.0;  // max - min
};

LatencyResult stats_of(const ev::util::SampleSeries& s) {
  return LatencyResult{s.mean() * 1e3, s.max() * 1e3, (s.max() - s.min()) * 1e3};
}

// The monitored control message: 8 bytes every 10 ms.
constexpr std::uint32_t kControlId = 0x20;

LatencyResult run_can(int background_senders, bool observed = false) {
  Simulator sim;
  CanBus bus(sim, "can", 500e3);
  auto rng = std::make_shared<ev::util::Rng>(97);
  ev::util::SampleSeries latency;
  bus.subscribe([&](const Frame& f, Time at) {
    if (f.id == kControlId) latency.add((at - f.created).to_seconds());
  });
  sim.schedule_periodic(Time{}, Time::ms(10), [&] {
    Frame f;
    f.id = kControlId;
    f.payload_size = 8;
    (void)bus.send(f);
  });
  // Background traffic with release jitter (event-triggered senders are not
  // phase-locked in a real vehicle), half higher and half lower priority
  // than the monitored message. Each sender reschedules a copy of itself;
  // the vector owns the originals and outlives the run.
  std::vector<std::function<void()>> senders(static_cast<std::size_t>(background_senders));
  for (int k = 0; k < background_senders; ++k) {
    const std::uint32_t id = (k % 2 == 0) ? 0x10 + static_cast<std::uint32_t>(k)
                                          : 0x100 + static_cast<std::uint32_t>(k);
    std::function<void()>& send_next = senders[static_cast<std::size_t>(k)];
    send_next = [&sim, &bus, rng, id, &send_next] {
      Frame f;
      f.id = id;
      f.payload_size = 8;
      (void)bus.send(f);
      const double next_s = 5e-3 * rng->uniform(0.6, 1.4);
      sim.schedule_in(Time::seconds(next_s), send_next);
    };
    sim.schedule_in(Time::us(rng->uniform_int(0, 5000)), send_next);
  }
  sim.run_until(Time::s(20));
  if (observed) evbench::count_kernel(sim);
  return stats_of(latency);
}

LatencyResult run_flexray(int background_senders, bool observed = false) {
  Simulator sim;
  FlexRayConfig cfg;
  cfg.static_slots.push_back({kControlId, 1, 16});
  for (int k = 0; k < background_senders; ++k)
    cfg.static_slots.push_back({0x100 + static_cast<std::uint32_t>(k),
                                static_cast<NodeId>(2 + k), 16});
  FlexRayBus bus(sim, "flexray", cfg);
  ev::util::SampleSeries latency;
  bus.subscribe([&](const Frame& f, Time at) {
    if (f.id == kControlId) latency.add((at - f.created).to_seconds());
  });
  bus.start();
  // Sender synchronized with the communication cycle (the global schedule
  // the paper describes).
  sim.schedule_periodic(Time::us(1), Time::seconds(bus.cycle_time_s()), [&] {
    Frame f;
    f.id = kControlId;
    (void)bus.send(f);
  });
  for (int k = 0; k < background_senders; ++k) {
    const std::uint32_t id = 0x100 + static_cast<std::uint32_t>(k);
    sim.schedule_periodic(Time::us(1), Time::seconds(bus.cycle_time_s()), [&bus, id] {
      Frame f;
      f.id = id;
      (void)bus.send(f);
    });
  }
  sim.run_until(Time::s(20));
  if (observed) evbench::count_kernel(sim);
  return stats_of(latency);
}

LatencyResult run_tt_ethernet(int background_senders, bool observed = false) {
  Simulator sim;
  EthernetSwitch sw(sim, "eth", 2);
  sw.attach(1, 0);
  sw.add_route(kControlId, EthRoute{{1}, EthClass::kTimeTriggered});
  for (int k = 0; k < background_senders; ++k)
    sw.add_route(0x100 + static_cast<std::uint32_t>(k),
                 EthRoute{{1}, EthClass::kBestEffort});
  // 1 ms gating cycle: a protected TT window plus a best-effort remainder.
  GateSchedule gs;
  gs.cycle_s = 1e-3;
  gs.windows.push_back(GateWindow{0.0, 0.1e-3, true});
  gs.windows.push_back(GateWindow{0.1e-3, 0.9e-3, false});
  sw.set_gate_schedule(1, gs);

  ev::util::SampleSeries latency;
  sw.subscribe([&](const Frame& f, Time at) {
    if (f.id == kControlId) latency.add((at - f.created).to_seconds());
  });
  // TT sender phase-aligned with the gate cycle.
  sim.schedule_periodic(Time{}, Time::ms(10), [&] {
    Frame f;
    f.id = kControlId;
    f.source = 1;
    f.payload_size = 8;
    (void)sw.send(f);
  });
  for (int k = 0; k < background_senders; ++k) {
    const std::uint32_t id = 0x100 + static_cast<std::uint32_t>(k);
    sim.schedule_periodic(Time::us(211 * (k + 1)), Time::ms(2), [&sw, id] {
      Frame f;
      f.id = id;
      f.source = 1;
      f.payload_size = 1200;
      (void)sw.send(f);
    });
  }
  sim.run_until(Time::s(20));
  if (observed) evbench::count_kernel(sim);
  return stats_of(latency);
}

void run_experiment() {
  std::puts("E5 — event-triggered vs time-triggered transport for a 10 ms "
            "control message\n");
  ev::util::Table table("latency and jitter vs background load",
                        {"transport", "background senders", "mean", "max", "jitter"});
  for (int bg : {0, 8, 16}) {
    const LatencyResult can = run_can(bg, /*observed=*/true);
    table.add_row({"CAN (event-triggered)", std::to_string(bg),
                   ev::util::fmt(can.mean_ms, 3) + " ms",
                   ev::util::fmt(can.max_ms, 3) + " ms",
                   ev::util::fmt(can.jitter_ms, 3) + " ms"});
  }
  for (int bg : {0, 4, 7}) {  // static segment holds 8 slots total
    const LatencyResult fr = run_flexray(bg, /*observed=*/true);
    table.add_row({"FlexRay static (TT)", std::to_string(bg),
                   ev::util::fmt(fr.mean_ms, 3) + " ms",
                   ev::util::fmt(fr.max_ms, 3) + " ms",
                   ev::util::fmt(fr.jitter_ms, 3) + " ms"});
  }
  for (int bg : {0, 8, 16}) {
    const LatencyResult eth = run_tt_ethernet(bg, /*observed=*/true);
    table.add_row({"TT Ethernet (gated)", std::to_string(bg),
                   ev::util::fmt(eth.mean_ms, 3) + " ms",
                   ev::util::fmt(eth.max_ms, 3) + " ms",
                   ev::util::fmt(eth.jitter_ms, 3) + " ms"});
  }
  table.print();
  evbench::set_gauge("e5.can.max_latency_ms", run_can(16, /*observed=*/true).max_ms);
  evbench::set_gauge("e5.tt_eth.jitter_ms", run_tt_ethernet(16, /*observed=*/true).jitter_ms);
  std::puts("expected shape: CAN latency and jitter grow with load; the "
            "time-triggered transports hold constant latency with (near-)zero "
            "jitter regardless of background traffic.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e5_tt_vs_et");
}

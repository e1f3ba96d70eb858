// Experiment E21: the zero-allocation hot path, timed. The rework keeps
// every deterministic artifact byte-identical (Golden.HotPathArtifacts pins
// that) and buys its speed in three places: the event kernel (slab/free-list
// arena + flat binary heap + inline EventFn), the battery plant
// (structure-of-arrays CellBatch::step_all, and the one-sweep-per-step
// plant + BMS layer around it), and the pub/sub plane (span publish into a
// reusable arena). This experiment times each of them, plus one whole urban
// scenario, on fixed workloads; the A/B against the
// pre-rework design is archived in EXPERIMENTS.md E21. Wall-clock gauges
// live only here — never in the byte-compared E2/E17/E18 artifacts — and
// feed scripts/perfgate.py.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "ev/battery/cell_batch.h"
#include "ev/battery/pack.h"
#include "ev/bms/battery_manager.h"
#include "ev/config/scenario.h"
#include "ev/core/scenario.h"
#include "ev/middleware/pubsub.h"
#include "ev/sim/simulator.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using ev::sim::EventId;
using ev::sim::Time;

/// The MOST frame clock as ev::network::MostBus runs it: ticks on the
/// 22,676 ns grid only while async frames are queued, stops on the first
/// idle tick, and re-arms on the next send at the first grid
/// boundary at or after now and strictly after the last tick. A tick carries
/// one frame; the frame that completes a transfer schedules its delivery one
/// period later.
struct OnDemandFrameClock {
  static constexpr Time kPeriod = Time::ns(22676);

  ev::sim::Simulator& kernel;
  std::uint64_t& work;
  int queued_frames = 0;
  Time last_tick{};
  EventId id = ev::sim::kNoEvent;

  void send(int frames) {
    queued_frames += frames;
    if (id != ev::sim::kNoEvent) return;
    // The grid starts at t = 0.
    Time next = kPeriod * ((kernel.now() + kPeriod - Time::ns(1)) / kPeriod);
    if (next <= last_tick) next = last_tick + kPeriod;
    id = kernel.schedule_periodic(next, kPeriod, [this] { tick(); });
  }

  void tick() {
    last_tick = kernel.now();
    if (queued_frames == 0) {
      (void)kernel.cancel(id);
      id = ev::sim::kNoEvent;
      return;
    }
    if (--queued_frames == 0)
      kernel.schedule_in(kPeriod, [&work = work] { ++work; });
    ++work;
  }
};

/// E18's dispatch mix: the on-demand MOST frame clock fed
/// the scenario vehicle's async traffic (a 256-byte nav transfer of six
/// frames every 50 ms and two single-frame gateway forwards every 100 ms, so
/// the clock wakes 40 times a second and stops on the idle tick after each
/// burst), a 10 kHz bus tick that chains a one-shot frame delivery each
/// period (the handler carries a moved-in 40-byte payload, as a network frame
/// send does — larger than std::function's inline buffer, within EventFn's
/// 64 bytes), the 1 kHz middleware major frame, 100 Hz control, 10 Hz
/// pack-state publication, a watchdog that cancels and re-arms a timeout
/// every control period (the cancel/reschedule churn the arena free list
/// must absorb), and 200 staggered per-node heartbeats so the live set
/// carries scenario-scale depth. Returns events dispatched.
std::uint64_t run_event_mix(ev::sim::Simulator& kernel, int sim_seconds) {
  std::uint64_t work = 0;
  struct FramePayload {  // what a bus delivery closure drags along
    double fields[4];
    std::uint64_t id;
  };
  OnDemandFrameClock most{kernel, work};
  kernel.schedule_periodic(Time::ms(10), Time::ms(50), [&most] { most.send(6); });
  kernel.schedule_periodic(Time::ms(25), Time::ms(100), [&most] { most.send(1); });
  kernel.schedule_periodic(Time::ms(75), Time::ms(100), [&most] { most.send(1); });
  auto timeout = std::make_shared<EventId>(ev::sim::kNoEvent);
  kernel.schedule_periodic(Time::us(100), Time::us(100), [&kernel, &work] {
    FramePayload payload{{1.0, 2.0, 3.0, 4.0}, work};
    kernel.schedule_in(Time::us(20), [&work, payload] {
      work += payload.id != 0 ? 1 : 2;
    });
    ++work;
  });
  kernel.schedule_periodic(Time::ms(1), Time::ms(1), [&] { ++work; });
  kernel.schedule_periodic(Time::ms(10), Time::ms(10), [&kernel, &work, timeout] {
    if (*timeout != ev::sim::kNoEvent) (void)kernel.cancel(*timeout);
    *timeout = kernel.schedule_at(kernel.now() + Time::ms(50), [&work] { ++work; });
    ++work;
  });
  kernel.schedule_periodic(Time::ms(100), Time::ms(100), [&] { ++work; });
  for (int node = 0; node < 200; ++node)  // ECU heartbeats: live-set depth
    kernel.schedule_periodic(Time::ms(5 + node), Time::ms(1000), [&] { ++work; });
  kernel.run_until(Time::seconds(sim_seconds));
  evbench::keep(work);
  return kernel.dispatched();
}

constexpr int kMixSimSeconds = 30;
/// Events the mix dispatches in kMixSimSeconds; a changed count means the
/// workload (or the kernel's semantics) moved, not just its cost.
constexpr std::uint64_t kMixDispatches = 647099;

struct KernelRun {
  double wall_s = 0.0;
  std::uint64_t dispatched = 0;
  std::uint64_t heap_constructions_delta = 0;
};

KernelRun measure_kernel() {
  KernelRun run;
  const std::uint64_t heap_before = ev::sim::EventFn::heap_constructions();
  run.wall_s = evbench::best_of3_wall_seconds([&run] {
    ev::sim::Simulator kernel;
    run.dispatched = run_event_mix(kernel, kMixSimSeconds);
  });
  run.heap_constructions_delta = ev::sim::EventFn::heap_constructions() - heap_before;
  return run;
}

// --- battery plant: the SoA cell batch ---------------------------------------

ev::battery::CellBatch make_batch(std::size_t count) {
  std::vector<ev::battery::CellInit> cells;
  cells.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    cells.push_back({ev::battery::CellParameters{}, 0.6 + 0.002 * static_cast<double>(i % 32)});
  return ev::battery::CellBatch(cells, ev::battery::OcvCurve::nmc());
}

double measure_cells(std::size_t count, int steps) {
  const std::vector<double> current(count, 12.0);
  const std::vector<double> heat(count, 0.0);
  return evbench::best_of3_wall_seconds([&] {
    ev::battery::CellBatch batch = make_batch(count);
    for (int s = 0; s < steps; ++s)
      (void)batch.step_all(current, heat, 0.01, 25.0);
    evbench::keep(ev::battery::CellConstView(batch, 0).soc());
  });
}

// --- plant + BMS layer: one control step over a whole pack ------------------

/// A 16x12 actively balanced pack (the 192 cells of e2ebench's `stress`
/// drive), Pack::step then BatteryManager::step every 10 ms under a
/// drive/regen current profile: the cell plant, the module sweep, the safety
/// monitor and the balancers, without the vehicle around them.
double measure_plant(int periods) {
  return evbench::best_of3_wall_seconds([periods] {
    ev::util::Rng rng(21);
    ev::battery::PackConfig pack_config;
    pack_config.module_count = 16;
    pack_config.cells_per_module = 12;
    ev::battery::Pack pack(pack_config, rng);
    ev::bms::BmsConfig bms_config;
    bms_config.balancing = ev::bms::BalancingKind::kActive;
    ev::bms::BatteryManager bms(pack, bms_config);
    for (int k = 0; k < periods; ++k) {
      (void)pack.step(k % 500 < 300 ? 60.0 : -25.0, 0.01);
      (void)bms.step(pack, 0.01, rng);
    }
    evbench::keep(pack.mean_soc());
  });
}

// --- pub/sub plane: span publish into the broker arena ----------------------

double measure_publish(int samples) {
  struct Pod {
    double a;
    double b;
    std::int64_t seq;
  };
  constexpr ev::middleware::TopicId kTopic = 21;
  constexpr int kFlushEvery = 64;
  return evbench::best_of3_wall_seconds([samples] {
    ev::middleware::PubSubBroker broker;
    std::uint64_t bytes = 0;
    broker.subscribe(kTopic, [&bytes](const ev::middleware::SampleView& view) {
      bytes += view.data.size();
    });
    Pod pod{1.0, 2.0, 0};
    for (int i = 0; i < samples; ++i) {
      pod.seq = i;
      broker.publish(kTopic,
                     std::span<const std::uint8_t>(
                         reinterpret_cast<const std::uint8_t*>(&pod), sizeof(Pod)),
                     i);
      if (i % kFlushEvery == kFlushEvery - 1) (void)broker.flush(i);
    }
    (void)broker.flush(samples);
    evbench::keep(bytes);
  });
}

// --- the whole vehicle, once, on the clock -----------------------------------

double measure_scenario() {
  ev::config::ScenarioSpec spec;
  spec.name = "e21-hot-path";
  spec.drive.cycle = ev::config::CycleKind::kUrban;
  spec.powertrain.seed = 7;
  spec.subsystems.obs = false;
  spec.subsystems.faults = true;
  spec.subsystems.health = true;
  return evbench::wall_seconds([&spec] { (void)ev::core::run_scenario(spec, nullptr); });
}

void run_experiment() {
  std::puts("E21 — zero-allocation hot path: arena kernel, SoA cell batch, "
            "and zero-copy publish\n");

  const KernelRun kernel = measure_kernel();
  const double cells_s = measure_cells(/*count=*/96, /*steps=*/50000);
  const double plant_s = measure_plant(/*periods=*/10000);
  const double publish_s = measure_publish(/*samples=*/1'000'000);
  const double scenario_s = measure_scenario();

  ev::util::Table table("hot path (best of 3)", {"stage", "wall [s]"});
  table.add_row({"event kernel (E18 dispatch mix, 30 s sim)", ev::util::fmt(kernel.wall_s, 3)});
  table.add_row({"battery plant (96 cells x 50k steps)", ev::util::fmt(cells_s, 3)});
  table.add_row({"plant + BMS (16x12 active pack x 10k periods)", ev::util::fmt(plant_s, 3)});
  table.add_row({"pub/sub publish (1M samples)", ev::util::fmt(publish_s, 3)});
  table.add_row({"full urban scenario, single seed (one run)", ev::util::fmt(scenario_s, 3)});
  table.print();

  std::printf("\nkernel dispatches: %llu (expected %llu)\n",
              static_cast<unsigned long long>(kernel.dispatched),
              static_cast<unsigned long long>(kMixDispatches));
  std::printf("arena heap constructions during mix: %llu (zero-allocation claim)\n\n",
              static_cast<unsigned long long>(kernel.heap_constructions_delta));

  evbench::set_gauge("e21.kernel.arena_wall_s", kernel.wall_s);
  evbench::set_gauge("e21.kernel.dispatch_match",
                     kernel.dispatched == kMixDispatches ? 1.0 : 0.0);
  evbench::set_gauge("e21.kernel.heap_constructions",
                     static_cast<double>(kernel.heap_constructions_delta));
  evbench::set_gauge("e21.cells.soa_wall_s", cells_s);
  evbench::set_gauge("e21.plant.step_wall_s", plant_s);
  evbench::set_gauge("e21.publish.span_wall_s", publish_s);
  evbench::set_gauge("e21.scenario.wall_s", scenario_s);
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e21_hot_path");
}

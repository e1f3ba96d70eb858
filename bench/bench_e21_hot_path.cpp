// Experiment E21: the zero-allocation hot path, measured. The rework keeps
// every deterministic artifact byte-identical (Golden.HotPathArtifacts pins
// that) and buys its speed in three places: the event kernel (slab/free-list
// arena + flat binary heap + inline EventFn instead of an unordered_map,
// node-based priority queue, and std::function), the battery plant
// (structure-of-arrays CellBatch::step_all instead of a virtual-free but
// pointer-chasing per-cell object loop), and the pub/sub plane (span
// publish into a reusable arena instead of one owning vector per sample).
// To make the win measurable inside one binary, this experiment embeds a
// faithful miniature of the *pre-rework* kernel (same containers, same
// re-arm-before-dispatch semantics, same per-dispatch handler copy) and
// replays E18's dispatch mix through both kernels. The headline gauge is
// that A/B speedup; the acceptance bar is >= 2x. Wall-clock gauges live
// only here — never in the byte-compared E2/E17/E18 artifacts — and feed
// scripts/perfgate.py.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "ev/battery/cell.h"
#include "ev/battery/cell_batch.h"
#include "ev/config/scenario.h"
#include "ev/core/scenario.h"
#include "ev/middleware/pubsub.h"
#include "ev/sim/simulator.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using ev::sim::EventId;
using ev::sim::Time;

// --- the pre-rework kernel, verbatim in miniature ----------------------------
// Containers, id allocation, FIFO tie-break, re-arm-before-dispatch, and the
// per-dispatch std::function copy all match the seed implementation; only
// observer hooks and tags are omitted (both sides run unobserved here).
namespace legacy {

class Kernel {
 public:
  using Handler = std::function<void()>;

  EventId schedule_at(Time at, Handler handler) {
    return enqueue(at, std::move(handler), false, Time{});
  }
  EventId schedule_in(Time delay, Handler handler) {
    return enqueue(now_ + delay, std::move(handler), false, Time{});
  }
  EventId schedule_periodic(Time first, Time period, Handler handler) {
    return enqueue(first, std::move(handler), true, period);
  }

  bool cancel(EventId id) { return live_.erase(id) != 0; }

  std::size_t run_until(Time until) {
    std::size_t dispatched = 0;
    while (!queue_.empty()) {
      const Scheduled top = queue_.top();
      auto it = live_.find(top.id);
      if (it == live_.end()) {
        queue_.pop();
        continue;
      }
      if (top.at > until) break;
      queue_.pop();
      now_ = top.at;
      ++dispatched_;
      ++dispatched;
      if (it->second.periodic) {
        Handler handler = it->second.handler;  // per-dispatch copy, as seeded
        queue_.push(Scheduled{top.at + it->second.period, next_seq_++, top.id});
        handler();
      } else {
        Handler handler = std::move(it->second.handler);
        live_.erase(it);
        handler();
      }
    }
    if (now_ < until) now_ = until;
    return dispatched;
  }

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  struct Scheduled {
    Time at;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Entry {
    Handler handler;
    Time period{};
    bool periodic = false;
  };

  EventId enqueue(Time at, Handler handler, bool periodic, Time period) {
    const EventId id = next_id_++;
    queue_.push(Scheduled{at, next_seq_++, id});
    live_.emplace(id, Entry{std::move(handler), period, periodic});
    return id;
  }

  Time now_{};
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t dispatched_ = 0;
  std::priority_queue<Scheduled, std::vector<Scheduled>, Later> queue_;
  std::unordered_map<EventId, Entry> live_;
};

}  // namespace legacy

/// The MOST frame clock as ev::network::MostBus runs it, kernel-agnostic:
/// ticks on the 22,676 ns grid only while async frames are queued, stops on
/// the first idle tick, and re-arms on the next send at the first grid
/// boundary at or after now and strictly after the last tick. A tick carries
/// one frame; the frame that completes a transfer schedules its delivery one
/// period later.
template <typename Kernel>
struct OnDemandFrameClock {
  static constexpr Time kPeriod = Time::ns(22676);

  Kernel& kernel;
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

/// E18's dispatch mix, kernel-agnostic: the on-demand MOST frame clock fed
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
/// carries scenario-scale depth. Returns events dispatched — identical for
/// both kernels by construction.
template <typename Kernel>
std::uint64_t run_event_mix(Kernel& kernel, int sim_seconds) {
  std::uint64_t work = 0;
  struct FramePayload {  // what a bus delivery closure drags along
    double fields[4];
    std::uint64_t id;
  };
  OnDemandFrameClock<Kernel> most{kernel, work};
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
  benchmark::DoNotOptimize(work);
  return kernel.dispatched();
}

double wall_seconds(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// Best of three: the gauges feed a wall-time regression gate, so shave off
/// scheduler noise instead of averaging it in.
double best_wall_of3(const std::function<void()>& body) {
  double best = wall_seconds(body);
  for (int i = 0; i < 2; ++i) best = std::min(best, wall_seconds(body));
  return best;
}

constexpr int kMixSimSeconds = 30;

struct KernelAB {
  double legacy_s = 0.0;
  double arena_s = 0.0;
  std::uint64_t legacy_dispatched = 0;
  std::uint64_t arena_dispatched = 0;
  std::uint64_t heap_constructions_delta = 0;
};

KernelAB measure_kernels() {
  KernelAB ab;
  ab.legacy_s = best_wall_of3([&ab] {
    legacy::Kernel kernel;
    ab.legacy_dispatched = run_event_mix(kernel, kMixSimSeconds);
  });
  const std::uint64_t heap_before = ev::sim::EventFn::heap_constructions();
  ab.arena_s = best_wall_of3([&ab] {
    ev::sim::Simulator kernel;
    ab.arena_dispatched = run_event_mix(kernel, kMixSimSeconds);
  });
  ab.heap_constructions_delta = ev::sim::EventFn::heap_constructions() - heap_before;
  return ab;
}

// --- battery plant: AoS object loop vs SoA batch -----------------------------

std::vector<ev::battery::Cell> make_cells(std::size_t count) {
  std::vector<ev::battery::Cell> cells;
  cells.reserve(count);
  const ev::battery::OcvCurve curve = ev::battery::OcvCurve::nmc();
  for (std::size_t i = 0; i < count; ++i)
    cells.emplace_back(ev::battery::CellParameters{}, curve,
                       0.6 + 0.002 * static_cast<double>(i % 32));
  return cells;
}

struct CellsAB {
  double aos_s = 0.0;
  double soa_s = 0.0;
  double checksum_delta = 0.0;  // |mean SoC (AoS) - mean SoC (SoA)|: must be 0
};

CellsAB measure_cells(std::size_t count, int steps) {
  CellsAB ab;
  const std::vector<ev::battery::Cell> seed_cells = make_cells(count);
  const std::vector<double> current(count, 12.0);
  const std::vector<double> heat(count, 0.0);
  double aos_mean = 0.0;
  double soa_mean = 0.0;

  ab.aos_s = best_wall_of3([&] {
    std::vector<ev::battery::Cell> cells = seed_cells;
    for (int s = 0; s < steps; ++s)
      for (std::size_t i = 0; i < cells.size(); ++i)
        (void)cells[i].step(current[i], 0.01, 25.0, heat[i]);
    aos_mean = 0.0;
    for (const ev::battery::Cell& c : cells) aos_mean += c.soc();
    aos_mean /= static_cast<double>(cells.size());
  });

  ab.soa_s = best_wall_of3([&] {
    ev::battery::CellBatch batch(seed_cells);
    for (int s = 0; s < steps; ++s)
      (void)batch.step_all(current, heat, 0.01, 25.0);
    soa_mean = 0.0;
    for (std::size_t i = 0; i < batch.size(); ++i) soa_mean += batch.soc(i);
    soa_mean /= static_cast<double>(batch.size());
  });

  ab.checksum_delta = std::abs(aos_mean - soa_mean);
  return ab;
}

// --- pub/sub plane: owning vector publish vs span-into-arena publish ---------

struct PublishAB {
  double owning_s = 0.0;
  double span_s = 0.0;
  std::uint64_t bytes_seen = 0;
};

PublishAB measure_publish(int samples) {
  PublishAB ab;
  struct Pod {
    double a;
    double b;
    std::int64_t seq;
  };
  constexpr ev::middleware::TopicId kTopic = 21;
  constexpr int kFlushEvery = 64;

  ab.owning_s = best_wall_of3([&ab, samples] {
    ev::middleware::PubSubBroker broker;
    std::uint64_t bytes = 0;
    broker.subscribe(kTopic, [&bytes](const ev::middleware::SampleView& view) {
      bytes += view.data.size();
    });
    Pod pod{1.0, 2.0, 0};
    for (int i = 0; i < samples; ++i) {
      pod.seq = i;
      // Emulates the retired owning-vector overload: allocate a fresh vector
      // per sample and copy into it before the broker copies again into its
      // arena. That double copy is exactly what the span entry point removes.
      std::vector<std::uint8_t> owned(sizeof(Pod));
      std::memcpy(owned.data(), &pod, sizeof(Pod));
      broker.publish(kTopic, owned, i);
      if (i % kFlushEvery == kFlushEvery - 1) (void)broker.flush(i);
    }
    (void)broker.flush(samples);
    ab.bytes_seen = bytes;
  });

  ab.span_s = best_wall_of3([&ab, samples] {
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
    ab.bytes_seen = bytes;
  });
  return ab;
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
  return wall_seconds([&spec] { (void)ev::core::run_scenario(spec, nullptr); });
}

void run_experiment() {
  std::puts("E21 — zero-allocation hot path: arena kernel, SoA cell batch, "
            "and zero-copy publish, A/B against the pre-rework design\n");

  const KernelAB kernel = measure_kernels();
  const double kernel_speedup = kernel.legacy_s / kernel.arena_s;
  const CellsAB cells = measure_cells(/*count=*/96, /*steps=*/50000);
  const double cells_speedup = cells.aos_s / cells.soa_s;
  const PublishAB publish = measure_publish(/*samples=*/1'000'000);
  const double publish_speedup = publish.owning_s / publish.span_s;
  const double scenario_s = measure_scenario();

  ev::util::Table table("hot-path A/B (best of 3, identical workloads)",
                        {"stage", "before [s]", "after [s]", "speedup"});
  table.add_row({"event kernel (E18 dispatch mix, 30 s sim)",
                 ev::util::fmt(kernel.legacy_s, 3), ev::util::fmt(kernel.arena_s, 3),
                 ev::util::fmt(kernel_speedup, 2) + "x"});
  table.add_row({"battery plant (96 cells x 50k steps)", ev::util::fmt(cells.aos_s, 3),
                 ev::util::fmt(cells.soa_s, 3), ev::util::fmt(cells_speedup, 2) + "x"});
  table.add_row({"pub/sub publish (1M samples)", ev::util::fmt(publish.owning_s, 3),
                 ev::util::fmt(publish.span_s, 3),
                 ev::util::fmt(publish_speedup, 2) + "x"});
  table.print();

  std::printf("\nkernel dispatches: legacy %llu, arena %llu (must match)\n",
              static_cast<unsigned long long>(kernel.legacy_dispatched),
              static_cast<unsigned long long>(kernel.arena_dispatched));
  std::printf("arena heap constructions during mix: %llu (zero-allocation claim)\n",
              static_cast<unsigned long long>(kernel.heap_constructions_delta));
  std::printf("SoA vs AoS mean-SoC delta: %.3g (bit-exactness claim)\n",
              cells.checksum_delta);
  std::printf("full urban scenario, single seed: %.3f s wall\n", scenario_s);
  std::printf("kernel speedup %.2fx >= 2x target: %s\n\n", kernel_speedup,
              kernel_speedup >= 2.0 ? "yes" : "NO");

  evbench::set_gauge("e21.kernel.legacy_wall_s", kernel.legacy_s);
  evbench::set_gauge("e21.kernel.arena_wall_s", kernel.arena_s);
  evbench::set_gauge("e21.kernel.speedup", kernel_speedup);
  evbench::set_gauge("e21.kernel.dispatch_match",
                     kernel.legacy_dispatched == kernel.arena_dispatched ? 1.0 : 0.0);
  evbench::set_gauge("e21.kernel.heap_constructions",
                     static_cast<double>(kernel.heap_constructions_delta));
  evbench::set_gauge("e21.cells.aos_wall_s", cells.aos_s);
  evbench::set_gauge("e21.cells.soa_wall_s", cells.soa_s);
  evbench::set_gauge("e21.cells.speedup", cells_speedup);
  evbench::set_gauge("e21.cells.mean_soc_delta", cells.checksum_delta);
  evbench::set_gauge("e21.publish.owning_wall_s", publish.owning_s);
  evbench::set_gauge("e21.publish.span_wall_s", publish.span_s);
  evbench::set_gauge("e21.publish.speedup", publish_speedup);
  evbench::set_gauge("e21.scenario.wall_s", scenario_s);
  evbench::set_gauge("e21.speedup_target_met", kernel_speedup >= 2.0 ? 1.0 : 0.0);
}

void bm_arena_event_mix(benchmark::State& state) {
  for (auto _ : state) {
    ev::sim::Simulator kernel;
    benchmark::DoNotOptimize(run_event_mix(kernel, 1));
  }
}
BENCHMARK(bm_arena_event_mix)->Unit(benchmark::kMillisecond);

void bm_legacy_event_mix(benchmark::State& state) {
  for (auto _ : state) {
    legacy::Kernel kernel;
    benchmark::DoNotOptimize(run_event_mix(kernel, 1));
  }
}
BENCHMARK(bm_legacy_event_mix)->Unit(benchmark::kMillisecond);

void bm_cell_batch_step_all(benchmark::State& state) {
  const std::vector<ev::battery::Cell> seed_cells = make_cells(96);
  ev::battery::CellBatch batch(seed_cells);
  const std::vector<double> current(96, 12.0);
  const std::vector<double> heat(96, 0.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(batch.step_all(current, heat, 0.01, 25.0));
}
BENCHMARK(bm_cell_batch_step_all)->Unit(benchmark::kMicrosecond);

void bm_span_publish_flush(benchmark::State& state) {
  ev::middleware::PubSubBroker broker;
  std::uint64_t bytes = 0;
  broker.subscribe(21, [&bytes](const ev::middleware::SampleView& view) {
    bytes += view.data.size();
  });
  double payload[3] = {1.0, 2.0, 3.0};
  for (auto _ : state) {
    broker.publish(21,
                   std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(payload), sizeof(payload)),
                   0);
    broker.flush(0);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(bm_span_publish_flush)->Unit(benchmark::kNanosecond);

}  // namespace

int main(int argc, char** argv) {
  run_experiment();
  return evbench::finish("e21_hot_path", argc, argv);
}

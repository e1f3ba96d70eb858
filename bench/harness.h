/// \file harness.h
/// Shared scaffolding for the experiment binaries. Each binary prints its
/// experiment tables, exports the observability snapshot accumulated while
/// doing so (BENCH_<experiment>.json — event counts, dispatch-latency stats,
/// subsystem gauges; plus a Chrome-trace file when spans were recorded), and
/// then runs its registered google-benchmark microbenchmarks with a short
/// default measuring time (override with the usual --benchmark_* flags).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "ev/obs/export.h"
#include "ev/obs/metrics.h"
#include "ev/obs/sim_observer.h"
#include "ev/obs/span_trace.h"
#include "ev/sim/simulator.h"
#include "ev/util/worker_pool.h"

namespace evbench {

/// Initializes and runs google-benchmark. When the caller passed no
/// benchmark flags, a short --benchmark_min_time keeps the full harness
/// sweep fast.
inline int run_registered_benchmarks(int argc, char** argv) {
  std::vector<std::string> stored(argv, argv + argc);
  bool has_min_time = false;
  for (const std::string& s : stored)
    if (s.rfind("--benchmark_min_time", 0) == 0) has_min_time = true;
  if (!has_min_time) stored.push_back("--benchmark_min_time=0.05");

  std::vector<char*> args;
  args.reserve(stored.size());
  for (auto& s : stored) args.push_back(s.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// The binary's metric registry. Everything recorded here before finish()
/// lands in the exported snapshot.
inline ev::obs::MetricsRegistry& metrics() {
  static ev::obs::MetricsRegistry registry;
  return registry;
}

/// The binary's span sink (exported as a Chrome trace when non-empty).
inline ev::obs::TraceLog& trace() {
  static ev::obs::TraceLog log;
  return log;
}

/// The shared simulator observer feeding metrics().
inline ev::obs::SimObserver& sim_observer() {
  static ev::obs::SimObserver observer(metrics());
  return observer;
}

/// Attaches the shared observer to \p sim: its event count, dispatch-delay
/// distribution, and queue-depth peak then accumulate into metrics().
inline void observe(ev::sim::Simulator& sim) { sim.set_observer(&sim_observer()); }

/// Records the experiment-specific gauge \p name = \p value.
inline void set_gauge(std::string_view name, double value) {
  metrics().set(metrics().gauge(name), value);
}

/// Runs \p body once per rung of a deterministic arithmetic seed ladder:
/// seed_i = first + i * stride for i in [0, runs). This is the campaign
/// shape every seed-averaged experiment table shares — a fixed run count
/// with seeds derived only from the ladder, so the whole sweep is a pure
/// function of (first, stride, runs). \p body receives (seed, run_index).
template <typename Body>
inline void run_seeded_campaign(std::uint64_t first, std::uint64_t stride, int runs,
                                Body&& body) {
  for (int i = 0; i < runs; ++i)
    body(first + static_cast<std::uint64_t>(i) * stride, i);
}

/// Worker thread count for parallel campaigns: EVSYS_BENCH_JOBS when set,
/// otherwise one per hardware thread.
inline int default_jobs() {
  if (const char* env = std::getenv("EVSYS_BENCH_JOBS"); env != nullptr && *env != '\0')
    return std::atoi(env);
  return 0;  // resolve_jobs turns 0 into hardware_concurrency
}

/// Parallel overload of the seed-ladder campaign. \p worker(seed, index)
/// runs on up to \p jobs threads (0 = one per hardware thread) and must be
/// a pure function of its arguments — no shared mutable state, no touching
/// metrics()/trace(). Its returned values are handed to
/// \p fold(result, seed, index) on the calling thread in seed-index order,
/// so accumulated means, tables, and metrics come out byte-identical for
/// any jobs value (and identical to the serial overload).
template <typename Worker, typename Fold>
inline void run_seeded_campaign(std::uint64_t first, std::uint64_t stride, int runs,
                                int jobs, Worker&& worker, Fold&& fold) {
  using Result = std::invoke_result_t<Worker&, std::uint64_t, int>;
  std::vector<std::optional<Result>> results(static_cast<std::size_t>(runs));
  ev::util::WorkerPool pool(ev::util::resolve_jobs(jobs, runs));
  pool.run(runs, [&](int i) {
    results[static_cast<std::size_t>(i)].emplace(
        worker(first + static_cast<std::uint64_t>(i) * stride, i));
  });
  for (int i = 0; i < runs; ++i)
    fold(std::move(*results[static_cast<std::size_t>(i)]),
         first + static_cast<std::uint64_t>(i) * stride, i);
}

/// Exports the metrics snapshot to BENCH_<experiment>.json (and the span
/// trace to BENCH_<experiment>.trace.json when spans were recorded).
/// EVSYS_BENCH_METRICS_DIR relocates the files; EVSYS_BENCH_METRICS=0
/// disables emission. Returns false when disabled or the write failed.
inline bool export_metrics(const std::string& experiment) {
  const char* enabled = std::getenv("EVSYS_BENCH_METRICS");
  if (enabled != nullptr && std::string_view(enabled) == "0") return false;
  const char* dir = std::getenv("EVSYS_BENCH_METRICS_DIR");
  const std::string base =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
      "BENCH_" + experiment;
  const bool ok = ev::obs::write_metrics_json_file(metrics(), base + ".json");
  if (ok)
    std::printf("[obs] metrics snapshot: %s.json\n", base.c_str());
  else
    std::fprintf(stderr, "[obs] could not write %s.json\n", base.c_str());
  if (!trace().spans().empty() &&
      ev::obs::write_chrome_trace_file(trace(), base + ".trace.json"))
    std::printf("[obs] chrome trace: %s.trace.json\n", base.c_str());
  return ok;
}

/// Standard experiment epilogue: export the observability snapshot captured
/// by run_experiment(), then run the microbenchmarks. Exporting first keeps
/// the snapshot deterministic — benchmark iteration counts never feed it.
inline int finish(const std::string& experiment, int argc, char** argv) {
  (void)sim_observer();  // every snapshot carries the standard sim.* metrics
  export_metrics(experiment);
  return run_registered_benchmarks(argc, argv);
}

}  // namespace evbench

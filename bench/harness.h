/// \file harness.h
/// Shared scaffolding for the experiment binaries. Each binary prints its
/// experiment tables and exports the observability snapshot accumulated while
/// doing so (BENCH_<experiment>.json — event counts, histograms,
/// subsystem gauges; plus a Chrome-trace file when spans were recorded).
/// Wall-time gauges (`*_wall_s`) are timed with wall_seconds() and feed
/// scripts/perfgate.py.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "ev/obs/export.h"
#include "ev/obs/kernel_counters.h"
#include "ev/obs/metrics.h"
#include "ev/obs/span_trace.h"
#include "ev/sim/simulator.h"
#include "ev/util/parallel_for.h"

namespace evbench {

/// Wall-clock seconds (steady_clock) one call of \p body takes.
inline double wall_seconds(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// Best of three: the gauges feed a wall-time regression gate, so shave off
/// scheduler noise instead of averaging it in.
inline double best_of3_wall_seconds(const std::function<void()>& body) {
  double best = wall_seconds(body);
  for (int i = 0; i < 2; ++i) best = std::min(best, wall_seconds(body));
  return best;
}

/// Keeps the compiler from discarding a timed loop whose result nothing
/// else reads: \p value escapes into an empty asm statement that may read
/// any memory.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
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

/// Adds a finished simulator's own event counts to metrics(): the sim.*
/// counters sum over every simulator counted, sim.queue_depth.peak keeps
/// the largest. Only binaries that count a kernel export sim.* metrics.
inline void count_kernel(const ev::sim::Simulator& sim) {
  static const ev::obs::KernelCounters kernel(metrics());
  kernel.add(metrics(), sim);
}

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
  ev::util::parallel_for(jobs, runs, [&](int i) {
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
/// by run_experiment(). Returns 0 (a failed export warns on stderr only).
inline int finish(const std::string& experiment) {
  export_metrics(experiment);
  return 0;
}

}  // namespace evbench

/// \file parallel_for.h
/// The one parallel fan of evsys: seed campaigns, the bench harness, the
/// fuzzer and the data-parallel pedestrian detector all run on it. Each call
/// spawns its threads, hands the indices out through one atomic cursor with
/// the calling thread taking part, joins, and rethrows the first task
/// exception once every index has run. Callers collect per-index results
/// into a pre-sized slot array and fold them on the calling thread in index
/// order, which keeps the aggregate independent of the job count.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ev::util {

/// Resolves a user-facing --jobs value: <= 0 means one job per hardware
/// thread, and the result is clamped to [1, count] so a small fan never
/// spawns idle workers.
[[nodiscard]] inline int resolve_jobs(int jobs, int count) noexcept {
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs <= 0) jobs = 1;
  return std::clamp(jobs, 1, std::max(count, 1));
}

/// Runs fn(i) once for every i in [0, count) on resolve_jobs(jobs, count)
/// threads, the caller included; one job spawns no thread. Returns once
/// every index has run, rethrowing the first exception a task threw.
inline void parallel_for(int jobs, int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  const int workers = resolve_jobs(jobs, count);
  std::atomic<int> cursor{0};
  std::mutex mutex;
  std::exception_ptr error;
  const auto drain = [&] {
    for (int i = cursor.fetch_add(1, std::memory_order_relaxed); i < count;
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  {
    // jthreads join on scope exit, also when spawning one throws.
    std::vector<std::jthread> threads;
    for (int t = 1; t < workers; ++t) threads.emplace_back(drain);
    drain();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace ev::util

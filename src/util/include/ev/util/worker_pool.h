/// \file worker_pool.h
/// The one worker pool of evsys: seed campaigns, the bench harness,
/// synthesis candidates, the fuzzer and the data-parallel pedestrian
/// detector all run on it. Threads stay parked on a condition variable
/// between rounds, so repeated rounds pay no spawn cost — but each round
/// still pays a wake-up and a barrier, so a fan of a few microseconds of
/// work (a fleet tick) is faster inline; a one-shot fan sizes the pool with
/// resolve_jobs(jobs, count). Tasks are handed out through one atomic
/// cursor, the calling thread participates, jobs=1 never spawns a thread,
/// and the first task exception is rethrown on the caller after the round
/// drains — so callers collect per-index results into a pre-sized slot
/// array and fold them on the calling thread in index order, which keeps
/// the aggregate independent of the job count.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
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

class WorkerPool {
 public:
  /// Creates a pool that runs rounds on up to \p jobs threads including the
  /// caller (resolve_jobs semantics against an unbounded fan; <= 0 means one
  /// per hardware thread). jobs=1 runs every round inline.
  explicit WorkerPool(int jobs)
      : jobs_(resolve_jobs(jobs, std::numeric_limits<int>::max())) {
    threads_.reserve(static_cast<std::size_t>(jobs_ - 1));
    for (int t = 1; t < jobs_; ++t)
      threads_.emplace_back([this] { worker_loop(); });
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : threads_) worker.join();
  }

  /// Number of threads a round may use, caller included.
  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Runs fn(i) once for every i in [0, count); returns only after every
  /// worker has left the round (full barrier), so per-index slots are safe
  /// to fold immediately. Single caller, not reentrant.
  void run(int count, const std::function<void(int)>& fn) {
    if (count <= 0) return;
    if (jobs_ == 1 || count == 1) {
      for (int i = 0; i < count; ++i) fn(i);  // exceptions propagate directly
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      fn_ = &fn;
      count_ = count;
      cursor_.store(0, std::memory_order_relaxed);
      finished_ = 0;
      ++generation_;
    }
    wake_.notify_all();
    drain(fn, count);
    std::unique_lock<std::mutex> lock(mutex_);
    // Every worker checks in exactly once per generation, and the next
    // generation cannot start before all have — so fn_ never dangles.
    done_.wait(lock,
               [this] { return finished_ == static_cast<int>(threads_.size()); });
    fn_ = nullptr;
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

 private:
  void drain(const std::function<void(int)>& fn, int count) {
    for (;;) {
      const int i = cursor_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      int count = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stopping_ || generation_ != seen; });
        if (stopping_) return;
        seen = generation_;
        fn = fn_;
        count = count_;
      }
      drain(*fn, count);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++finished_;
      }
      done_.notify_all();
    }
  }

  int jobs_;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(int)>* fn_ = nullptr;
  int count_ = 0;
  std::atomic<int> cursor_{0};
  std::uint64_t generation_ = 0;
  int finished_ = 0;
  bool stopping_ = false;
  std::exception_ptr error_ = nullptr;
};

}  // namespace ev::util

/// \file partition.h
/// Software partitions: the virtualization unit of the lean middleware the
/// paper proposes. Each partition owns a time budget within the dispatcher's
/// major frame and a set of runnables; temporal isolation means an
/// overrunning or crashing partition can never consume another partition's
/// window — the property that makes ECU consolidation admissible for
/// mixed-criticality software.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ev::middleware {

/// Outcome of executing one runnable job.
enum class RunOutcome {
  kOk,       ///< Completed within its WCET.
  kOverrun,  ///< Exceeded its declared WCET (temporal fault).
  kCrash,    ///< Raised an error (spatial/logical fault).
};

/// A schedulable unit of application software.
struct Runnable {
  std::string name;
  std::int64_t period_us = 10000;  ///< Activation period.
  std::int64_t wcet_us = 200;      ///< Declared worst-case execution time.
  /// Body; returns the outcome the infrastructure should assume. Real
  /// middleware measures overruns; the simulation declares them.
  std::function<RunOutcome()> body;
};

/// Health state of a partition.
enum class PartitionHealth {
  kHealthy,
  kStopped,  ///< Shut down by the middleware after a fault (fail-silent).
};

/// A time/space partition hosting runnables.
class Partition {
 public:
  /// \p budget_us is the partition's execution window per major frame;
  /// \p criticality is informational (reports, placement policies).
  Partition(std::string name, std::int64_t budget_us, int criticality = 0);

  /// Adds \p runnable; allowed at runtime (the paper's "purchase
  /// functionality while the vehicle is already in operation").
  void deploy(Runnable runnable);

  /// Executes all due jobs within \p window_us of budget, advancing the
  /// partition-local release bookkeeping to \p now_us. A kCrash or kOverrun
  /// outcome stops the partition (fail-silent) and leaves the remaining
  /// jobs unserved. Returns consumed time [us].
  std::int64_t execute_window(std::int64_t now_us, std::int64_t window_us);

  /// Restores a stopped partition (maintenance restart). Also clears any
  /// pending injected faults so the restarted partition runs healthy.
  void restart() noexcept {
    health_ = PartitionHealth::kHealthy;
    crash_pending_ = false;
    hang_windows_ = 0;
  }

  /// Arms a crash fault: the next execute_window() call fails immediately
  /// (fault counted, partition stopped fail-silent) without running any
  /// runnable body. Deterministic injection point for the fault plan.
  void inject_crash() noexcept { crash_pending_ = true; }
  /// Arms a hang fault: the next \p windows execute_window() calls consume
  /// the entire window while completing no job (livelock/infinite loop).
  /// The partition stays nominally healthy, so only a missed heartbeat —
  /// not the health flag — can reveal the failure.
  void inject_hang(std::uint32_t windows) noexcept { hang_windows_ = windows; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::int64_t budget_us() const noexcept { return budget_us_; }
  [[nodiscard]] int criticality() const noexcept { return criticality_; }
  [[nodiscard]] PartitionHealth health() const noexcept { return health_; }
  /// Jobs completed since construction.
  [[nodiscard]] std::uint64_t jobs_completed() const noexcept { return jobs_completed_; }
  /// Jobs that could not run in their window (budget exhausted).
  [[nodiscard]] std::uint64_t jobs_deferred() const noexcept { return jobs_deferred_; }
  /// Faults observed (overruns + crashes).
  [[nodiscard]] std::uint64_t fault_count() const noexcept { return fault_count_; }
  /// Total execution time consumed [us].
  [[nodiscard]] std::int64_t cpu_time_us() const noexcept { return cpu_time_us_; }

 private:
  std::string name_;
  std::int64_t budget_us_;
  int criticality_;
  PartitionHealth health_ = PartitionHealth::kHealthy;
  std::vector<Runnable> runnables_;
  std::vector<std::int64_t> next_release_us_;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_deferred_ = 0;
  std::uint64_t fault_count_ = 0;
  std::int64_t cpu_time_us_ = 0;
  bool crash_pending_ = false;
  std::uint32_t hang_windows_ = 0;
};

}  // namespace ev::middleware

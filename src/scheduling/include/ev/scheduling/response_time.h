/// \file response_time.h
/// Event-triggered counterpart: classic fixed-priority preemptive
/// response-time analysis for ECU tasks, plus worst-case end-to-end latency
/// of sampled (asynchronous) cause-effect chains. Contrasted against the
/// synthesized time-triggered schedules in experiment E5: the event-
/// triggered bound carries sampling delays of up to one period per hop,
/// which is exactly why the paper calls synchronous time-triggered
/// scheduling the way to "significantly reduce end-to-end timing delays".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ev::scheduling {

/// One fixed-priority periodic task on a single ECU.
struct FpTask {
  std::string name;
  int priority = 0;               ///< Lower number = higher priority.
  std::int64_t period_us = 10000;
  std::int64_t wcet_us = 100;
  std::int64_t jitter_us = 0;     ///< Release jitter.
};

/// Analysis output for one task.
struct FpResponse {
  std::string name;
  std::int64_t response_us = 0;  ///< Worst-case response time.
  bool schedulable = false;      ///< response <= period.

  friend bool operator==(const FpResponse&, const FpResponse&) = default;
};

/// Exact worst-case response times (Joseph & Pandya fixed point with
/// jitter). Tasks may be given in any order.
[[nodiscard]] std::vector<FpResponse> fp_response_times(const std::vector<FpTask>& tasks);

}  // namespace ev::scheduling

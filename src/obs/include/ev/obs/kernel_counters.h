/// \file kernel_counters.h
/// The metric ids under which the event kernel's own lifecycle counts
/// (sim::Simulator::scheduled() and friends) are exported. The kernel keeps
/// those counts itself, so observing it costs nothing per event: register
/// the ids before a run and copy the totals in once the simulator is done.
#pragma once

#include "ev/obs/metrics.h"
#include "ev/sim/simulator.h"

namespace ev::obs {

/// Registers, in this order:
///  - counter `sim.events_scheduled`  (schedule_* calls, not periodic re-arms)
///  - counter `sim.events_dispatched`
///  - counter `sim.events_cancelled`  (cancels of live events only)
///  - gauge   `sim.queue_depth.peak`  (most events pending at once)
struct KernelCounters {
  KernelCounters() = default;
  explicit KernelCounters(MetricsRegistry& registry)
      : scheduled(registry.counter("sim.events_scheduled")),
        dispatched(registry.counter("sim.events_dispatched")),
        cancelled(registry.counter("sim.events_cancelled")),
        queue_peak(registry.gauge("sim.queue_depth.peak")) {}

  /// Adds \p sim's totals: the counters sum over every simulator added, the
  /// peak gauge keeps the largest.
  void add(MetricsRegistry& registry, const sim::Simulator& sim) const noexcept {
    registry.add(scheduled, sim.scheduled());
    registry.add(dispatched, sim.dispatched());
    registry.add(cancelled, sim.cancelled());
    registry.set_max(queue_peak, static_cast<double>(sim.peak_pending()));
  }

  MetricId scheduled = kInvalidId;
  MetricId dispatched = kInvalidId;
  MetricId cancelled = kInvalidId;
  MetricId queue_peak = kInvalidId;
};

}  // namespace ev::obs

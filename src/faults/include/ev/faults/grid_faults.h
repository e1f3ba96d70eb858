/// \file grid_faults.h
/// Deterministic grid-side fault timeline for the fleet charging backend.
/// Where FaultPlan injects faults *into a running simulator*, the grid
/// timeline is a pure function of time: the fleet simulation's tick loop
/// queries it each tick for the surviving grid capacity, partitioned
/// feeders, and stations whose control channel is blacked out. Keeping the
/// timeline side-effect free is what lets stations advance in parallel
/// between rebalance ticks — every worker reads the same immutable schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ev::faults {

/// What a grid fault event does while active.
enum class GridFaultKind : std::uint8_t {
  kCapacityDrop,     ///< Scale grid capacity by (1 - value) for the duration.
  kFeederPartition,  ///< Feeder `target` loses its control channel (island).
  kCommsBlackout,    ///< Stations [target, target + value) lose heartbeats.
};

/// One scheduled grid fault, active over [at_s, at_s + duration_s).
struct GridFaultEvent {
  double at_s = 0.0;
  GridFaultKind kind = GridFaultKind::kCapacityDrop;
  std::size_t target = 0;  ///< Feeder index or first station index.
  double value = 0.0;      ///< Drop fraction in [0, 1] or station count.
  double duration_s = 0.0;

  [[nodiscard]] bool active_at(double t) const noexcept {
    return t >= at_s && t < at_s + duration_s;
  }
};

/// The immutable fault schedule of one fleet run. All queries are O(events)
/// — schedules hold a handful of events, and the loop bodies branch on
/// plain doubles, so the per-tick cost is negligible next to the stations.
class GridFaultTimeline {
 public:
  GridFaultTimeline() = default;
  explicit GridFaultTimeline(std::vector<GridFaultEvent> events);

  /// Product of (1 - value) over the capacity drops active at \p t,
  /// clamped to [0, 1].
  [[nodiscard]] double capacity_scale(double t) const noexcept;

  /// True while a partition event covering \p feeder is active.
  [[nodiscard]] bool feeder_partitioned(std::size_t feeder, double t) const noexcept;

  /// True while a comms blackout covering \p station is active (feeder
  /// partitions are queried separately — the caller knows the station->
  /// feeder mapping, this timeline does not).
  [[nodiscard]] bool station_blacked_out(std::size_t station, double t) const noexcept;

  /// True when capacity_scale or any partition/blackout membership can
  /// differ between \p a and \p b — i.e. some event starts or ends inside
  /// (a, b]. The central system uses this to trigger an off-cycle rebalance
  /// the moment grid conditions change.
  [[nodiscard]] bool changed_between(double a, double b) const noexcept;

  [[nodiscard]] const std::vector<GridFaultEvent>& events() const noexcept {
    return events_;
  }

 private:
  std::vector<GridFaultEvent> events_;
};

}  // namespace ev::faults

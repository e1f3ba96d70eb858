/// \file grid_faults.h
/// Deterministic grid-side fault timeline for the fleet charging backend.
/// Where FaultPlan injects faults *into a running simulator*, the grid
/// timeline is a pure function of time: the surviving grid capacity, the
/// partitioned feeders, and the stations whose control channel is blacked
/// out. It is piecewise constant between event boundaries, and
/// changed_between() names the intervals that hold one. The fleet tick loop
/// relies on that contract: it reads the grid state at tick 0 and again only
/// when changed_between(previous tick, this tick) is true, and keeps what it
/// read in between.
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

/// The immutable fault schedule of one fleet run. All queries are O(events).
/// That is not negligible when asked for every station on every tick (it
/// was about a third of a fleet run), which is why callers re-read the
/// state only when changed_between() says it moved.
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

  /// True when some event starts or ends inside (a, b]. When it is false,
  /// capacity_scale, feeder_partitioned and station_blacked_out answer the
  /// same at \p a and \p b (a <= b). The fleet loop uses it both to re-read
  /// the grid state and to trigger an off-cycle rebalance the moment grid
  /// conditions change.
  [[nodiscard]] bool changed_between(double a, double b) const noexcept;

  [[nodiscard]] const std::vector<GridFaultEvent>& events() const noexcept {
    return events_;
  }

 private:
  std::vector<GridFaultEvent> events_;
};

}  // namespace ev::faults

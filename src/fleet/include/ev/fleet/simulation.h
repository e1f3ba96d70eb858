/// \file simulation.h
/// The fleet tick loop: binds the station population, the central system
/// and the grid fault timeline into one deterministic, single-threaded run.
/// Per tick: (1) grid state is read off the immutable fault timeline; (2) the
/// central system rebalances when its cadence is due or the grid changed;
/// (3) in station-index order, each station advances (drawing only from its
/// own RNG) and its outgoing messages are folded through the central system,
/// whose replies go back to that station; (4) the grid-safety invariant
/// (total draw <= live capacity) is checked. Same spec, same report.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "ev/config/fleet.h"
#include "ev/fleet/central.h"
#include "ev/fleet/station.h"
#include "ev/obs/metrics.h"

namespace ev::fleet {

/// Aggregate outcome of one fleet run; everything write_fleet_json emits.
struct FleetResult {
  std::string name;
  std::uint64_t station_count = 0;
  std::uint64_t seed = 0;
  std::uint64_t ticks = 0;
  double sim_hours = 0.0;
  GridMode final_mode = GridMode::kNormal;
  std::uint32_t digest = 0;  ///< CRC-32 of the canonical end-state summary.

  // Grid-safety observables. grid_violations must be 0 on every run — a
  // nonzero value means the reservation logic overcommitted the grid.
  std::uint64_t grid_violations = 0;
  double peak_draw_kw = 0.0;
  double min_headroom_kw = 0.0;
  double final_capacity_kw = 0.0;
  std::array<std::uint64_t, 4> mode_ticks{};  ///< Indexed by GridMode.

  // Station-side fold (index order) and end-of-run control-plane residue.
  StationStats stations;
  std::uint64_t messages_enqueued = 0;
  std::uint64_t messages_attempts = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_retried = 0;
  std::uint64_t messages_dead_lettered = 0;
  std::uint64_t retry_pending_end = 0;    ///< Still in retry queues at end.
  std::uint64_t journal_pending_end = 0;  ///< Dead-lettered, not yet redelivered.
  std::uint32_t open_transactions_end = 0;
  std::uint32_t throttled_peak = 0;  ///< Most stations throttled in one tick.

  CentralStats central;
};

/// Runs \p spec on the calling thread. \p jobs is ignored: it stays only
/// because the e2ebench harness times `jobs=2`/`jobs=1` fleet spans, and it
/// goes with those spans in the benchmark change of ROADMAP item 1. When
/// \p metrics is non-null, fleet.* counters/gauges/histograms are recorded
/// into it — all derived from simulation state, never wall-clock.
/// Throws std::invalid_argument when the spec fails validation.
[[nodiscard]] FleetResult run_fleet(const config::FleetSpec& spec, int jobs,
                                    obs::MetricsRegistry* metrics = nullptr);

/// Writes the deterministic single-line JSON report (shortest-round-trip
/// doubles; byte-identical across same-seed reruns).
void write_fleet_json(const FleetResult& result, std::ostream& out);

/// write_fleet_json into a string.
[[nodiscard]] std::string fleet_report_json(const FleetResult& result);

}  // namespace ev::fleet

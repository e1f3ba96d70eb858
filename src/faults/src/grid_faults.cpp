#include "ev/faults/grid_faults.h"

#include <algorithm>
#include <utility>

namespace ev::faults {

GridFaultTimeline::GridFaultTimeline(std::vector<GridFaultEvent> events)
    : events_(std::move(events)) {}

double GridFaultTimeline::capacity_scale(double t) const noexcept {
  double scale = 1.0;
  for (const GridFaultEvent& e : events_)
    if (e.kind == GridFaultKind::kCapacityDrop && e.active_at(t))
      scale *= std::clamp(1.0 - e.value, 0.0, 1.0);
  return scale;
}

bool GridFaultTimeline::feeder_partitioned(std::size_t feeder, double t) const noexcept {
  for (const GridFaultEvent& e : events_)
    if (e.kind == GridFaultKind::kFeederPartition && e.target == feeder && e.active_at(t))
      return true;
  return false;
}

bool GridFaultTimeline::station_blacked_out(std::size_t station, double t) const noexcept {
  for (const GridFaultEvent& e : events_)
    if (e.kind == GridFaultKind::kCommsBlackout && e.active_at(t) &&
        station >= e.target && station < e.target + static_cast<std::size_t>(e.value))
      return true;
  return false;
}

bool GridFaultTimeline::changed_between(double a, double b) const noexcept {
  for (const GridFaultEvent& e : events_) {
    if (e.at_s > a && e.at_s <= b) return true;
    const double end = e.at_s + e.duration_s;
    if (end > a && end <= b) return true;
  }
  return false;
}

}  // namespace ev::faults

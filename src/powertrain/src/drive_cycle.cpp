#include "ev/powertrain/drive_cycle.h"

#include <algorithm>
#include <stdexcept>

#include "ev/util/units.h"

namespace ev::powertrain {

DriveCycle::DriveCycle(std::string name, std::vector<CyclePoint> points)
    : name_(std::move(name)), points_(std::move(points)) {
  if (points_.size() < 2) throw std::invalid_argument("DriveCycle: need at least two points");
  if (points_.front().t_s != 0.0)
    throw std::invalid_argument("DriveCycle: profile must start at t = 0");
  for (std::size_t i = 1; i < points_.size(); ++i)
    if (points_[i].t_s <= points_[i - 1].t_s)
      throw std::invalid_argument("DriveCycle: times must be strictly increasing");
  for (const auto& p : points_)
    if (p.speed_mps < 0.0) throw std::invalid_argument("DriveCycle: speeds must be >= 0");
}

double DriveCycle::speed_at(double t_s) const noexcept {
  if (t_s <= 0.0) return points_.front().speed_mps;
  if (t_s >= points_.back().t_s) return points_.back().speed_mps;
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), t_s,
      [](const CyclePoint& p, double t) { return p.t_s < t; });
  const CyclePoint& hi = *it;
  const CyclePoint& lo = *(it - 1);
  const double frac = (t_s - lo.t_s) / (hi.t_s - lo.t_s);
  return lo.speed_mps + (hi.speed_mps - lo.speed_mps) * frac;
}

double DriveCycle::ideal_distance_m() const noexcept {
  double d = 0.0;
  for (std::size_t i = 1; i < points_.size(); ++i)
    d += 0.5 * (points_[i].speed_mps + points_[i - 1].speed_mps) *
         (points_[i].t_s - points_[i - 1].t_s);
  return d;
}

int DriveCycle::stop_count() const noexcept {
  int stops = 0;
  bool moving = false;
  for (const auto& p : points_) {
    if (p.speed_mps > 0.1) {
      moving = true;
    } else if (moving) {
      ++stops;
      moving = false;
    }
  }
  return stops;
}

CycleBuilder& CycleBuilder::cruise(double seconds) {
  const CyclePoint last = points_.back();
  points_.push_back(CyclePoint{last.t_s + seconds, last.speed_mps});
  return *this;
}

CycleBuilder& CycleBuilder::ramp_to(double target_kmh, double seconds) {
  const CyclePoint last = points_.back();
  points_.push_back(CyclePoint{last.t_s + seconds, util::kmh_to_mps(target_kmh)});
  return *this;
}

CycleBuilder& CycleBuilder::stop(double seconds, double idle_seconds) {
  const CyclePoint last = points_.back();
  points_.push_back(CyclePoint{last.t_s + seconds, 0.0});
  points_.push_back(CyclePoint{last.t_s + seconds + idle_seconds, 0.0});
  return *this;
}

DriveCycle CycleBuilder::build() && { return DriveCycle(std::move(name_), std::move(points_)); }

DriveCycle DriveCycle::urban() {
  CycleBuilder b("urban");
  // Twelve stop-go micro-trips with varied peaks, UDDS-like character.
  const double peaks_kmh[] = {30, 45, 25, 50, 40, 35, 55, 30, 45, 40, 25, 50};
  for (double peak : peaks_kmh) {
    b.ramp_to(peak, peak / 2.2);   // ~0.6-0.7 m/s^2 acceleration
    b.cruise(25.0);
    b.stop(peak / 2.8, 8.0);       // ~0.8-1.0 m/s^2 braking, 8 s dwell
  }
  return std::move(b).build();
}

DriveCycle DriveCycle::highway() {
  CycleBuilder b("highway");
  b.ramp_to(100.0, 30.0).cruise(300.0).ramp_to(120.0, 15.0).cruise(300.0).ramp_to(100.0, 10.0)
      .cruise(200.0).stop(25.0, 5.0);
  return std::move(b).build();
}

DriveCycle DriveCycle::suburban() {
  CycleBuilder b("suburban");
  const double peaks_kmh[] = {60, 70, 50, 80};
  for (double peak : peaks_kmh) {
    b.ramp_to(peak, peak / 2.0);
    b.cruise(90.0);
    b.stop(peak / 2.5, 10.0);
  }
  return std::move(b).build();
}

DriveCycle DriveCycle::repeat(const DriveCycle& base, int times) {
  if (times < 1) throw std::invalid_argument("DriveCycle::repeat: times must be >= 1");
  std::vector<CyclePoint> pts;
  double offset = 0.0;
  for (int k = 0; k < times; ++k) {
    for (const auto& p : base.points()) {
      if (k > 0 && p.t_s == 0.0) continue;  // skip duplicate joint knot
      pts.push_back(CyclePoint{p.t_s + offset, p.speed_mps});
    }
    offset += base.duration_s();
  }
  return DriveCycle(base.name() + "x" + std::to_string(times), std::move(pts));
}

}  // namespace ev::powertrain

/// \file drive_cycle.h
/// Drive cycles: target-speed-vs-time profiles the driver model follows.
/// Since certified dynamometer traces (UDDS/NEDC/WLTP) are licensed data,
/// the library synthesizes cycles with the same structure from primitives
/// (idle, accelerate, cruise, brake); the urban/highway presets match the
/// statistical character (stop density, mean speed) of their namesakes.
#pragma once

#include <string>
#include <vector>

namespace ev::powertrain {

/// One knot of a speed profile.
struct CyclePoint {
  double t_s = 0.0;      ///< Time since cycle start [s].
  double speed_mps = 0.0;  ///< Target speed [m/s].
};

/// Piecewise-linear target-speed profile.
class DriveCycle {
 public:
  /// Builds a cycle from knots with strictly increasing times starting at 0.
  DriveCycle(std::string name, std::vector<CyclePoint> points);

  /// Target speed at \p t_s (clamped to the profile ends) [m/s].
  [[nodiscard]] double speed_at(double t_s) const noexcept;
  /// Total cycle duration [s].
  [[nodiscard]] double duration_s() const noexcept { return points_.back().t_s; }
  /// Distance covered when tracking the profile exactly [m].
  [[nodiscard]] double ideal_distance_m() const noexcept;
  /// Number of full stops (speed returns to zero) in the profile.
  [[nodiscard]] int stop_count() const noexcept;
  /// Cycle name.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Profile knots.
  [[nodiscard]] const std::vector<CyclePoint>& points() const noexcept { return points_; }

  /// Urban stop-and-go cycle (~UDDS character: ~12 stops, mean ~30 km/h).
  [[nodiscard]] static DriveCycle urban();
  /// Highway cruise cycle (~100-120 km/h, no stops).
  [[nodiscard]] static DriveCycle highway();
  /// Mixed suburban cycle (a few stops, mean ~55 km/h).
  [[nodiscard]] static DriveCycle suburban();

  /// Repeats \p base \p times back-to-back (for range tests that need more
  /// distance than one cycle provides).
  [[nodiscard]] static DriveCycle repeat(const DriveCycle& base, int times);

 private:
  std::string name_;
  std::vector<CyclePoint> points_;
};

/// Incremental builder assembling a cycle from driving primitives.
class CycleBuilder {
 public:
  /// Starts a cycle named \p name at speed zero, time zero.
  explicit CycleBuilder(std::string name) : name_(std::move(name)) {
    points_.push_back(CyclePoint{0.0, 0.0});
  }

  /// Holds the current speed for \p seconds.
  CycleBuilder& cruise(double seconds);
  /// Ramps linearly to \p target_kmh over \p seconds.
  CycleBuilder& ramp_to(double target_kmh, double seconds);
  /// Brakes linearly to zero over \p seconds and idles \p idle_seconds.
  CycleBuilder& stop(double seconds, double idle_seconds = 5.0);

  /// Finalizes the cycle.
  [[nodiscard]] DriveCycle build() &&;

 private:
  std::string name_;
  std::vector<CyclePoint> points_;
};

}  // namespace ev::powertrain

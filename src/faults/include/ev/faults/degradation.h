/// \file degradation.h
/// Vehicle-level graceful degradation. The paper's architecture distributes
/// detection across domains — the BMS safety monitor, the motor controller's
/// open-switch detector, the by-wire voter, the middleware watchdog, the
/// network health watcher — but the *reaction* must be coordinated at the
/// vehicle level: a single mode machine that maps every detected fault onto
/// the strongest still-safe driving capability instead of an immediate stop.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include "ev/bms/safety.h"
#include "ev/bywire/redundancy.h"
#include "ev/motor/fault.h"
#include "ev/obs/metrics.h"
#include "ev/sim/simulator.h"

namespace ev::faults {

/// Drive capability modes, ordered by severity. Transitions only escalate
/// (mirrors the latched trip of the BMS SafetyMonitor).
enum class DriveMode : std::uint8_t {
  kNormal = 0,
  kDerated = 1,   ///< Reduced torque/speed; the trip can continue.
  kLimpHome = 2,  ///< Minimal traction to reach the next safe spot.
  kSafeStop = 3,  ///< Torque cut; controlled stop.
};

/// Name of a drive mode for reports.
[[nodiscard]] std::string to_string(DriveMode mode);

/// How each mode constrains the powertrain, and which fault counts trigger
/// which escalation.
struct DegradationPolicy {
  double derated_torque_fraction = 0.5;
  double derated_speed_limit_mps = 27.8;  ///< ~100 km/h.
  double limp_torque_fraction = 0.2;
  double limp_speed_limit_mps = 12.5;  ///< ~45 km/h.
  /// Watchdog-initiated partition restarts before entering kDerated /
  /// kLimpHome. One restart is routine self-healing worth derating for;
  /// repeated restarts mean the platform is unstable.
  std::uint64_t restarts_to_derate = 1;
  std::uint64_t restarts_to_limp = 3;
  /// Network fault reports before entering kDerated / kLimpHome.
  std::uint64_t bus_faults_to_derate = 1;
  std::uint64_t bus_faults_to_limp = 3;
};

/// Aggregates domain health into one vehicle drive mode. Feed it from each
/// domain's existing detector (it never inspects injected-fault state
/// directly); read back torque/speed limits in the powertrain loop.
class DegradationManager {
 public:
  /// Called on every mode escalation with (from, to, cause).
  using Listener = std::function<void(DriveMode, DriveMode, const std::string&)>;

  explicit DegradationManager(sim::Simulator& sim, DegradationPolicy policy = {});

  // --- detection inputs -------------------------------------------------
  /// BMS safety verdict for the period: kDerate -> kDerated, kOpenContactor
  /// -> kSafeStop (no traction without the pack).
  void on_bms(bms::SafetyAction action);
  /// Motor diagnosis: an open switch costs one phase leg -> kLimpHome.
  void on_motor(const std::optional<motor::FaultDiagnosis>& diagnosis);
  /// By-wire vote: disagreement -> kDerated; lost majority -> kSafeStop
  /// (steering/braking cannot run open-loop).
  void on_bywire(const bywire::VoteResult& vote);
  /// Watchdog restarted a partition (wire from HealthMonitor's listener).
  void on_partition_restart();
  /// Network health watcher flagged a bus fault episode.
  void on_bus_fault();

  // --- reaction outputs -------------------------------------------------
  [[nodiscard]] DriveMode mode() const noexcept { return mode_; }
  /// Allowed fraction of full torque in the current mode (0 in kSafeStop).
  [[nodiscard]] double torque_limit_fraction() const noexcept;
  /// Allowed speed [m/s]; unlimited (infinity) in kNormal.
  [[nodiscard]] double speed_limit_mps() const noexcept;

  /// Marks "a fault was just injected": the next escalation records
  /// now - mark as end-to-end detection latency. Called by FaultPlan.
  void mark_fault_injected() { injected_at_ = sim_->now(); }

  /// Registers \p listener for mode escalations.
  void set_listener(Listener listener) { listener_ = std::move(listener); }

  /// Attaches observability:
  ///  - gauge `deg.mode` (numeric DriveMode value)
  ///  - counter `deg.transitions`
  ///  - counters `deg.events.{bms,motor,bywire,partition,bus}`
  ///  - histogram `deg.detection_latency_us` (injection -> escalation, for
  ///    faults announced via mark_fault_injected())
  void attach_observer(obs::MetricsRegistry& registry);

  /// Mode escalations so far.
  [[nodiscard]] std::uint64_t transitions() const noexcept { return transitions_; }
  /// Partition restarts reported so far.
  [[nodiscard]] std::uint64_t partition_restarts() const noexcept { return restarts_; }
  /// Bus fault episodes reported so far.
  [[nodiscard]] std::uint64_t bus_faults() const noexcept { return bus_faults_; }

 private:
  void escalate(DriveMode target, const std::string& cause);
  void count_event(obs::MetricId id);

  sim::Simulator* sim_;
  DegradationPolicy policy_;
  DriveMode mode_ = DriveMode::kNormal;
  Listener listener_;
  std::uint64_t transitions_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t bus_faults_ = 0;
  std::optional<sim::Time> injected_at_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricId mode_metric_ = obs::kInvalidId;
  obs::MetricId transitions_metric_ = obs::kInvalidId;
  obs::MetricId latency_metric_ = obs::kInvalidId;
  obs::MetricId bms_metric_ = obs::kInvalidId;
  obs::MetricId motor_metric_ = obs::kInvalidId;
  obs::MetricId bywire_metric_ = obs::kInvalidId;
  obs::MetricId partition_metric_ = obs::kInvalidId;
  obs::MetricId bus_metric_ = obs::kInvalidId;
};

}  // namespace ev::faults

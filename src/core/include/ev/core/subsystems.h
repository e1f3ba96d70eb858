/// \file subsystems.h
/// The standard Subsystem adapters the composition root knows how to build
/// from a scenario description:
///  - ObservabilitySubsystem: one MetricsRegistry + span sink observing the
///    kernel, every Fig. 1 bus, and the cockpit middleware;
///  - FaultsSubsystem: seeded FaultPlan injected into the buses, partitions
///    and cells resolve_fault_targets() resolved, NetworkHealthWatcher over
///    all buses, and the DegradationManager driving the plant's torque/speed
///    limits;
///  - HealthSubsystem: heartbeat watchdog over the cockpit partitions,
///    feeding partition restarts into the degradation manager when one is
///    attached;
///  - SecuritySubsystem: authenticated (HMAC + replay-protected) telemetry
///    frames on the chassis FlexRay backbone, verified at the receiver.
/// Each adapter owns its domain objects; experiments reach them through
/// VehicleSystem::find_subsystem<T>() for reporting.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ev/config/scenario.h"
#include "ev/core/cosim.h"
#include "ev/core/fault_targets.h"
#include "ev/core/subsystem.h"
#include "ev/faults/degradation.h"
#include "ev/faults/fault_plan.h"
#include "ev/faults/network_faults.h"
#include "ev/middleware/health.h"
#include "ev/obs/kernel_counters.h"
#include "ev/obs/metrics.h"
#include "ev/obs/span_trace.h"
#include "ev/security/secure_channel.h"

namespace ev::core {

/// Frame id of the authenticated telemetry flow on the chassis FlexRay.
inline constexpr std::uint32_t kFrameIdSecureTelemetry = 0x160;

/// Observes kernel, buses, and middleware into one registry/span sink.
class ObservabilitySubsystem final : public Subsystem {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "obs"; }
  void attach(VehicleSystem& vehicle) override;
  void after_run(VehicleSystem& vehicle, SubsystemSnapshot& out) override;

  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] obs::TraceLog& trace() noexcept { return trace_; }

  /// Writes <base>.metrics.json, <base>.metrics.csv, and — when spans were
  /// recorded — <base>.trace.json. Returns false when any write failed.
  bool export_files(const std::string& base) const;

 private:
  obs::MetricsRegistry metrics_;
  obs::TraceLog trace_;
  obs::KernelCounters kernel_;  // filled from the simulator in after_run()
};

/// Seeded fault injection + network health watching + graceful degradation.
class FaultsSubsystem final : public Subsystem {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// Every target resolved (build_vehicle throws on an unresolved one).
    std::vector<PlannedFault> faults;
    faults::DegradationPolicy policy{};
    faults::NetworkWatchConfig watch{};
  };

  explicit FaultsSubsystem(Options options);

  [[nodiscard]] std::string_view name() const noexcept override { return "faults"; }
  void attach(VehicleSystem& vehicle) override;
  void before_run(VehicleSystem& vehicle) override;
  void after_run(VehicleSystem& vehicle, SubsystemSnapshot& out) override;

  [[nodiscard]] faults::DegradationManager& degradation() noexcept { return *degradation_; }
  [[nodiscard]] faults::FaultPlan& plan() noexcept { return *plan_; }
  [[nodiscard]] faults::NetworkHealthWatcher& watcher() noexcept { return *watcher_; }
  /// Mode transitions recorded during the run, as (time_s, from, to, cause).
  struct ModeChange {
    double t_s;
    faults::DriveMode from;
    faults::DriveMode to;
    std::string cause;
  };
  [[nodiscard]] const std::vector<ModeChange>& mode_changes() const noexcept {
    return mode_changes_;
  }

 private:
  Options options_;
  std::unique_ptr<faults::DegradationManager> degradation_;
  std::unique_ptr<faults::NetworkHealthWatcher> watcher_;
  std::unique_ptr<faults::FaultPlan> plan_;
  std::vector<std::unique_ptr<faults::BabblingIdiot>> babblers_;
  std::vector<ModeChange> mode_changes_;
};

/// Heartbeat watchdog over the cockpit partitions.
class HealthSubsystem final : public Subsystem {
 public:
  explicit HealthSubsystem(middleware::HealthConfig config = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "health"; }
  void attach(VehicleSystem& vehicle) override;
  void before_run(VehicleSystem& vehicle) override;
  void after_run(VehicleSystem& vehicle, SubsystemSnapshot& out) override;

  /// Valid after before_run() (the monitor needs the partitions to exist).
  [[nodiscard]] middleware::HealthMonitor& monitor() noexcept { return *monitor_; }

 private:
  middleware::HealthConfig config_;
  std::unique_ptr<middleware::HealthMonitor> monitor_;
};

/// Authenticated pack-telemetry frames on the chassis FlexRay: a sender
/// channel protects (counter + truncated HMAC, ChaCha20 payload) a periodic
/// telemetry message, the receiving end verifies every frame. The paper's
/// §4.2 argument made operational inside the composed vehicle.
class SecuritySubsystem final : public Subsystem {
 public:
  struct Options {
    double publish_period_s = 0.1;  ///< Telemetry period on the chassis bus.
    security::ChannelConfig channel{};
  };

  SecuritySubsystem();
  explicit SecuritySubsystem(Options options);

  [[nodiscard]] std::string_view name() const noexcept override { return "security"; }
  void attach(VehicleSystem& vehicle) override;
  void before_run(VehicleSystem& vehicle) override;
  void after_run(VehicleSystem& vehicle, SubsystemSnapshot& out) override;

  [[nodiscard]] std::uint64_t frames_protected() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t frames_authenticated() const noexcept { return verified_; }
  [[nodiscard]] std::uint64_t frames_rejected() const noexcept { return rejected_; }

 private:
  Options options_;
  std::unique_ptr<security::SecureChannel> sender_;
  std::unique_ptr<security::SecureChannel> receiver_;
  std::uint64_t sent_ = 0;
  std::uint64_t verified_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace ev::core

/// \file fault_targets.h
/// The one place a scenario's fault targets are resolved. A
/// config::FaultEventSpec names its target as text: a Fig. 1 bus, a cockpit
/// partition or a pack cell index. resolve_fault_targets() turns the list
/// into a typed plan that build_vehicle() injects and the analyzer lints,
/// so `run` rejects exactly what `check` rejects, with the same message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ev/config/scenario.h"
#include "ev/core/app_model.h"
#include "ev/network/can.h"

namespace ev::core {

/// What a fault kind's target names. The stochastic error models
/// (bus.error_rate, bus.error_prob) need a CAN bus.
enum class FaultTargetKind : std::uint8_t { kBus, kCanBus, kPartition, kCell };

[[nodiscard]] FaultTargetKind fault_target_kind(config::FaultKind kind) noexcept;

/// A target the vehicle lacks, as `evsys check` reports it.
struct FaultTargetError {
  std::string rule_id;  ///< "fault.unknown_target" or "prob.unsupported_target".
  std::string message;
};

/// One fault event with its target resolved.
struct PlannedFault {
  /// As written; the target string also seeds a CAN error model's RNG.
  config::FaultEventSpec event;
  /// Bus (kArchBusNames order), cockpit partition or pack cell index, per
  /// fault_target_kind(event.kind). Meaningless when error is set.
  std::size_t index = 0;
  bool can_bus = false;  ///< The target is a CAN bus.
  std::optional<FaultTargetError> error;
};

/// Resolves \p faults, in order, against the cockpit \p partitions (in
/// cockpit_app_model order, the order VehicleSystem creates them in) and a
/// pack of \p cell_count cells. Cell indices read the closed
/// config::parse_u64 grammar.
[[nodiscard]] std::vector<PlannedFault> resolve_fault_targets(
    const std::vector<config::FaultEventSpec>& faults,
    const std::vector<PartitionModel>& partitions, std::size_t cell_count);

/// The merge rule of stochastic CAN error specs on one bus, shared by the
/// simulator and the analyzer: a bus.error_rate \p event adds its rate to
/// \p model, a bus.error_prob event composes its probability as
/// 1 - (1 - p)(1 - q). The seed is left alone.
void merge_error_event(const config::FaultEventSpec& event, network::CanErrorModel& model);

}  // namespace ev::core

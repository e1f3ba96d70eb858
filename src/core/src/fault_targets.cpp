#include "ev/core/fault_targets.h"

#include <utility>

namespace ev::core {
namespace {

/// Protocol of each Fig. 1 bus, in kArchBusNames order.
constexpr const char* kBusProtocols[config::kArchBusCount] = {"LIN", "CAN", "MOST", "CAN",
                                                              "FlexRay"};

}  // namespace

FaultTargetKind fault_target_kind(config::FaultKind kind) noexcept {
  switch (kind) {
    case config::FaultKind::kPartitionCrash:
    case config::FaultKind::kPartitionHang: return FaultTargetKind::kPartition;
    case config::FaultKind::kSensorStuck: return FaultTargetKind::kCell;
    case config::FaultKind::kBusErrorRate:
    case config::FaultKind::kBusErrorProb: return FaultTargetKind::kCanBus;
    default: return FaultTargetKind::kBus;
  }
}

std::vector<PlannedFault> resolve_fault_targets(
    const std::vector<config::FaultEventSpec>& faults,
    const std::vector<PartitionModel>& partitions, std::size_t cell_count) {
  std::vector<PlannedFault> plan;
  for (const config::FaultEventSpec& event : faults) {
    PlannedFault& fault = plan.emplace_back(PlannedFault{event, 0, false, std::nullopt});
    const std::string kind = config::to_string(event.kind);
    std::string unknown;  // message of a fault.unknown_target error
    const FaultTargetKind target = fault_target_kind(event.kind);
    switch (target) {
      case FaultTargetKind::kBus:
      case FaultTargetKind::kCanBus: {
        fault.index = config::arch_bus_index(event.target);
        if (fault.index == config::kArchBusCount) {
          unknown = kind + " targets unknown bus '" + event.target + "'";
          break;
        }
        const std::string protocol = kBusProtocols[fault.index];
        fault.can_bus = protocol == "CAN";
        if (target == FaultTargetKind::kCanBus && !fault.can_bus)
          fault.error = FaultTargetError{
              "prob.unsupported_target",
              kind + " targets " + protocol + " bus '" + event.target +
                  "' — the stochastic error model covers CAN only"};
        break;
      }
      case FaultTargetKind::kPartition:
        while (fault.index < partitions.size() &&
               partitions[fault.index].name != event.target)
          ++fault.index;
        if (fault.index == partitions.size())
          unknown = kind + " targets unknown cockpit partition '" + event.target + "'";
        break;
      case FaultTargetKind::kCell: {
        const std::optional<std::uint64_t> cell = config::parse_u64(event.target);
        if (cell && *cell < cell_count)
          fault.index = static_cast<std::size_t>(*cell);
        else
          unknown = "sensor fault targets cell '" + event.target + "' outside the pack (" +
                    std::to_string(cell_count) + " cells)";
        break;
      }
    }
    if (!unknown.empty())
      fault.error = FaultTargetError{"fault.unknown_target", std::move(unknown)};
  }
  return plan;
}

void merge_error_event(const config::FaultEventSpec& event, network::CanErrorModel& model) {
  if (event.kind == config::FaultKind::kBusErrorRate)
    model.poisson_rate_per_s += event.value;
  else if (model.per_attempt_prob == 0.0)  // exact for the single-spec case
    model.per_attempt_prob = event.value;
  else
    model.per_attempt_prob = 1.0 - (1.0 - model.per_attempt_prob) * (1.0 - event.value);
}

}  // namespace ev::core

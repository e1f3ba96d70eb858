/// \file scenario.h
/// From declarative scenario to running vehicle. This is where the
/// dependency-free config::ScenarioSpec meets the composition root: the
/// builder maps the spec onto a VehicleSystemConfig, attaches the enabled
/// Subsystem adapters (obs, security, faults, health — in that order, so
/// later subsystems can look up earlier ones), and the runner drives the
/// spec's cycle and renders the outcome as deterministic JSON. Same
/// scenario + same seed ⇒ byte-identical JSON; the `evsys` CLI and the E18
/// campaign are thin wrappers around these functions.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "ev/config/scenario.h"
#include "ev/core/cosim.h"
#include "ev/powertrain/drive_cycle.h"

namespace ev::core {

/// Maps the spec's pack/BMS/powertrain/network/timing sections onto a
/// VehicleSystemConfig (remaining plant parameters keep their defaults).
[[nodiscard]] VehicleSystemConfig to_vehicle_config(const config::ScenarioSpec& spec);

/// Builds the drive mission the spec describes.
[[nodiscard]] powertrain::DriveCycle to_drive_cycle(const config::ScenarioSpec& spec);

/// Validates \p spec, resolves its fault targets (resolve_fault_targets,
/// faults on or off), constructs the vehicle, and attaches every enabled
/// subsystem. The first unresolved target throws std::invalid_argument
/// "fault[i]: <message>" with the message `evsys check` reports for it,
/// before anything is built. The returned system is ready for one run().
[[nodiscard]] std::unique_ptr<VehicleSystem> build_vehicle(
    const config::ScenarioSpec& spec);

/// Outcome of one scenario run.
struct ScenarioRunResult {
  std::string scenario;  ///< spec.name
  CoSimResult cosim;
};

/// One-call experiment: build_vehicle + run. \p vehicle_out, when non-null,
/// receives the (already-run) system for further inspection.
[[nodiscard]] ScenarioRunResult run_scenario(
    const config::ScenarioSpec& spec,
    std::unique_ptr<VehicleSystem>* vehicle_out = nullptr);

/// Renders the result as one deterministic JSON object: scenario name, the
/// energy/driving ledger, the cross-domain telemetry figures, and one
/// section per subsystem snapshot. All doubles in shortest round-trippable
/// form, keys in fixed order.
void write_result_json(const ScenarioRunResult& result, std::ostream& out);
[[nodiscard]] std::string result_json(const ScenarioRunResult& result);

}  // namespace ev::core

/// \file passes.h
/// Internal seam between the numeric analysis passes and their diagnostic
/// rendering. compute_* functions are string-free (what synthesis hammers
/// thousands of times per run); render_* functions reconstruct the exact
/// diagnostics the monolithic analyzer used to emit from the memoized
/// numeric outcomes. FitnessEvaluator and analyze() are both built from
/// these, so their reports agree byte for byte.
#pragma once

#include <cstddef>
#include <vector>

#include "ev/analysis/diagnostics.h"
#include "ev/analysis/fitness.h"
#include "ev/analysis/model.h"

namespace ev::analysis::passes {

/// One numeric pass over one bus: refreshes `bounds` for the frames on it
/// and returns the load/issue outcome. Reads other frames' bounds for
/// routed release jitter; call in bus-index order until the fixed point
/// settles (three passes cover every Fig. 1 gateway chain). `scratch` is
/// the caller's working storage for the CAN analysis.
[[nodiscard]] BusOutcome compute_bus(const VehicleModel& model, std::size_t bus,
                                     const std::vector<std::size_t>& on_bus,
                                     std::vector<FrameBound>& bounds,
                                     BusPassScratch& scratch);

/// Probabilistic pass over one CAN bus (E24): walks the Broster R(k) ladder
/// for every frame on the bus and turns the per-frame tolerable-error count
/// into a deadline-miss probability under `error_model`. Reads the settled
/// bounds for routed release jitter — call only after the fixed point of
/// compute_bus passes. Unarmed models and non-CAN buses yield an outcome
/// with no frame entries.
[[nodiscard]] ProbOutcome compute_prob_bus(const VehicleModel& model, std::size_t bus,
                                           const std::vector<std::size_t>& on_bus,
                                           const std::vector<FrameBound>& bounds,
                                           const network::CanErrorModel& error_model,
                                           BusPassScratch& scratch);

/// Numeric ECU pass: budgets, window RTA, per-partition demand.
[[nodiscard]] EcuOutcome compute_ecu(const VehicleModel& model);

/// Wiring lints (already rendered — they are pure structure checks with no
/// hot-path numeric core).
[[nodiscard]] std::vector<Diagnostic> compute_wiring(const VehicleModel& model);

/// Renders the bus.load / bus.overload / per-frame issue diagnostics of one
/// bus outcome.
void render_bus(const VehicleModel& model, std::size_t bus, const BusOutcome& outcome,
                Report& report);

/// Renders rta.frame for every valid bound plus the per-bus rta.bus roll-up
/// and the gw.delay record.
void render_frame_bounds(const VehicleModel& model,
                         const std::vector<std::vector<std::size_t>>& per_bus,
                         const std::vector<FrameBound>& bounds, Report& report);

/// Renders ecu.frame_overflow / rta.partition / partition.overcommitted /
/// rta.runnable / rta.pubsub from the ECU outcome.
void render_ecu(const VehicleModel& model, const EcuOutcome& outcome, Report& report);

/// Renders prob.bus_error + per-frame prob.frame_miss of one probabilistic
/// outcome. Emits nothing for unarmed models — the zero-error-rate report
/// stays byte-identical to the deterministic pass.
void render_prob(const VehicleModel& model, std::size_t bus, const ProbOutcome& outcome,
                 Report& report);

}  // namespace ev::analysis::passes

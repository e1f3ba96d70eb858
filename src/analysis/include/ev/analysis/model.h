/// \file model.h
/// The analyzable task/message model of a composed vehicle, extracted from a
/// declarative scenario *without running it*. Extraction instantiates the
/// same builders the simulation uses — Figure1Network for topology, sources,
/// and gateway routes; cockpit_app_model for partitions and topics — but
/// never starts the clock, so what the analyzer sees is by construction the
/// configuration the co-simulation would execute.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ev/config/scenario.h"
#include "ev/core/app_model.h"
#include "ev/core/fault_targets.h"

namespace ev::analysis {

/// Media-access protocol of a modelled bus.
enum class Protocol : std::uint8_t { kLin, kCan, kMost, kFlexRay };

/// Protocol name for diagnostics ("LIN", "CAN", "MOST", "FlexRay").
[[nodiscard]] std::string to_string(Protocol protocol);

/// One periodic frame as the analyzer sees it. Routed frames (re-injected
/// by the gateway on a destination bus) reference their origin so
/// end-to-end bounds can accumulate across hops.
struct FrameModel {
  std::size_t bus = 0;  ///< Index into VehicleModel::buses.
  std::uint32_t id = 0;
  std::size_t payload_bytes = 0;
  double period_s = 0.0;
  std::string description;
  bool routed = false;  ///< Injected by the gateway, not a local source.
  std::size_t source_frame = kNoFrame;  ///< Origin (routed frames only).
  /// Original Fig. 1 identifier — the key `arch.*` overrides use, stable
  /// under renumbering.
  std::uint32_t base_id = 0;
  /// True when arch.frame_bus may place this frame on another bus (plain
  /// periodic sources that feed no gateway route and are not MOST-native).
  bool movable = false;
  /// True when arch.frame_id may renumber this frame (its bus is CAN, where
  /// the identifier is the arbitration priority).
  bool id_mutable = false;

  static constexpr std::size_t kNoFrame = static_cast<std::size_t>(-1);
};

/// One bus with the protocol parameters its response-time bounds need.
struct BusModel {
  std::string display_name;   ///< As buses report it, e.g. "safety(CAN)".
  std::string scenario_name;  ///< Scenario-facing name, e.g. "safety_can".
  Protocol protocol = Protocol::kCan;
  double bit_rate_bps = 0.0;
  // LIN (master schedule table, state semantics).
  double lin_cycle_s = 0.0;
  double lin_slot_time_s = 0.0;
  std::vector<std::uint32_t> lin_slot_ids;
  // FlexRay (TDMA static segment + minislot dynamic segment).
  double fr_cycle_s = 0.0;
  double fr_slot_s = 0.0;
  double fr_static_segment_s = 0.0;
  double fr_minislot_s = 0.0;
  double fr_dynamic_s = 0.0;
  std::map<std::uint32_t, std::size_t> fr_static_slot;  ///< id -> slot index.
  // MOST (isochronous streams + FCFS async byte budget).
  double most_frame_period_s = 0.0;
  std::size_t most_async_budget_bytes = 0;
  std::vector<std::uint32_t> most_sync_ids;
};

/// One gateway routing rule, by bus index.
struct RouteModel {
  std::size_t from_bus = 0;
  std::uint32_t match_id = 0;
  std::size_t to_bus = 0;
  std::uint32_t translated_id = 0;
  std::size_t translated_payload = 0;  ///< 0 keeps the source size.
};

/// Everything the static checks need about one composed vehicle.
struct VehicleModel {
  std::string scenario;
  core::CockpitAppModel app;       ///< Cockpit partitions/runnables/topics.
  std::vector<BusModel> buses;     ///< Fig. 1 order: LIN, CAN, MOST, CAN, FR.
  std::vector<FrameModel> frames;  ///< Local sources first, routed appended.
  std::vector<RouteModel> routes;
  double gateway_delay_s = 0.0;
  std::size_t cell_count = 0;  ///< Pack cells.
  bool health_enabled = false;
  bool security_enabled = false;
  /// The spec's fault events with their targets resolved — the plan
  /// build_vehicle() injects.
  std::vector<core::PlannedFault> faults;
};

/// Extracts the model for \p spec (which must validate()). Builds the real
/// network topology on a throwaway simulator — nothing is scheduled or run.
[[nodiscard]] VehicleModel extract_model(const config::ScenarioSpec& spec);

}  // namespace ev::analysis

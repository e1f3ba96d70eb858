/// \file scenario.h
/// Declarative whole-vehicle scenario descriptions. A ScenarioSpec is the
/// single source of truth for one co-simulated experiment: battery pack,
/// BMS policy, powertrain, the Fig. 1 network, co-simulation timing, the
/// seeded fault plan, and which pluggable subsystems are enabled. The spec
/// is plain data — this module depends on nothing but the standard library
/// — and round-trips losslessly through a line-based `key = value` text
/// format, so scenarios can live in version control and two runs of the
/// same file are the same experiment by construction. `core` turns a spec
/// into a running VehicleSystem; the `evsys` CLI binds the two together.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ev::config {

/// Drive-cycle selector (mirrors powertrain::DriveCycle's built-in library
/// without depending on it).
enum class CycleKind : std::uint8_t { kUrban, kHighway, kSuburban };

/// BMS balancing policy selector (mirrors bms::BalancingKind).
enum class Balancing : std::uint8_t { kNone, kPassive, kActive };

/// One planned fault injection. `target` names a Fig. 1 bus
/// (`body_lin`, `comfort_can`, `infotainment_most`, `safety_can`,
/// `chassis_flexray`), a cockpit partition, or — for sensor faults — a
/// global cell index rendered as a decimal string.
enum class FaultKind : std::uint8_t {
  kBusDrop,         ///< Drop the next `value` frames on the target bus.
  kBusCorrupt,      ///< Corrupt the next `value` frame payloads.
  kBusOff,          ///< Take the bus offline for `value` seconds.
  kBusBabble,       ///< Babbling idiot on the bus for `value` seconds.
  kPartitionCrash,  ///< Crash the named cockpit partition.
  kPartitionHang,   ///< Hang the named partition for `value` major frames.
  kSensorStuck,     ///< Stick cell `target`'s voltage sensor at `value` V.
  kBusErrorRate,    ///< Poisson transmission-error process on the target CAN
                    ///< bus: `value` is the error rate [errors/s] (>= 0,
                    ///< finite). Errored frames retransmit after the CAN
                    ///< error-flag recovery; `evsys check --prob` turns the
                    ///< rate into per-frame deadline-miss probabilities.
  kBusErrorProb,    ///< Bernoulli per-transmission-attempt error on the
                    ///< target CAN bus: `value` is a probability in [0, 1].
};

struct FaultEventSpec {
  double at_s = 0.0;     ///< Injection time [s] on the simulation clock.
  FaultKind kind = FaultKind::kBusDrop;
  std::string target;    ///< Bus name, partition name, or cell index.
  double value = 0.0;    ///< Kind-specific magnitude (see FaultKind).

  friend bool operator==(const FaultEventSpec&, const FaultEventSpec&) = default;
};

/// Battery pack description (the subset of battery::PackConfig an
/// experiment varies; everything else keeps the plant defaults).
struct PackSpec {
  std::uint64_t module_count = 8;
  std::uint64_t cells_per_module = 12;
  double initial_soc = 0.9;
  double soc_spread_sigma = 0.015;
  bool lfp_chemistry = false;

  friend bool operator==(const PackSpec&, const PackSpec&) = default;
};

/// BMS policy description.
struct BmsSpec {
  Balancing balancing = Balancing::kPassive;
  double initial_soc_estimate = 0.9;

  friend bool operator==(const BmsSpec&, const BmsSpec&) = default;
};

/// Powertrain knobs.
struct PowertrainSpec {
  std::uint64_t seed = 1;        ///< Reproducibility seed for the plant.
  double aux_power_w = 450.0;    ///< Constant 12 V auxiliary load.

  friend bool operator==(const PowertrainSpec&, const PowertrainSpec&) = default;
};

/// Fig. 1 network scaling knobs (mirrors network::Figure1Config).
struct NetworkSpec {
  double load_scale = 1.0;
  double can_bit_rate = 500e3;
  double lin_bit_rate = 19200.0;
  double flexray_bit_rate = 10e6;

  friend bool operator==(const NetworkSpec&, const NetworkSpec&) = default;
};

/// Co-simulation timing (mirrors core::VehicleSystemConfig periods).
struct TimingSpec {
  double control_period_s = 0.1;
  double bms_publish_period_s = 0.1;
  std::int64_t middleware_frame_us = 20000;

  friend bool operator==(const TimingSpec&, const TimingSpec&) = default;
};

/// One frame-placement override: the frame whose *original* Fig. 1
/// identifier is `frame_id` is produced on the named bus instead of its
/// default one. Only plain periodic sources can move — frames that feed a
/// gateway route, co-simulation frames (BMS status, secure telemetry), and
/// MOST streams are anchored, and the network builder rejects moves of
/// those.
struct FrameBusSpec {
  std::uint32_t frame_id = 0;  ///< Original Fig. 1 identifier.
  std::string bus;             ///< Target bus scenario name (e.g. `comfort_can`).

  friend bool operator==(const FrameBusSpec&, const FrameBusSpec&) = default;
};

/// One CAN identifier reassignment: the frame originally numbered
/// `frame_id` transmits as `new_id` instead. On CAN the identifier *is* the
/// priority (lower wins arbitration), so this is the priority-assignment
/// knob. Only frames whose final bus is CAN accept a new identifier.
struct FrameIdSpec {
  std::uint32_t frame_id = 0;  ///< Original Fig. 1 identifier.
  std::uint32_t new_id = 0;    ///< Identifier actually used on the wire.

  friend bool operator==(const FrameIdSpec&, const FrameIdSpec&) = default;
};

/// One FlexRay static-slot assignment: the chassis frame originally
/// numbered `frame_id` owns static slot `slot` (0-based TDMA position).
/// Unlisted static frames fill the remaining slots in default order.
struct FrSlotSpec {
  std::uint32_t frame_id = 0;  ///< Original Fig. 1 identifier.
  std::uint64_t slot = 0;      ///< 0-based static-slot index.

  friend bool operator==(const FrSlotSpec&, const FrSlotSpec&) = default;
};

/// One cockpit partition window: order in `ArchSpec::partitions` is the
/// major-frame window order, `budget_us` the window length. When present,
/// the list must name every default partition exactly once.
struct PartitionWindowSpec {
  std::string partition;         ///< Partition name (e.g. `hmi`).
  std::int64_t budget_us = 0;    ///< Window budget [us] in the major frame.

  friend bool operator==(const PartitionWindowSpec&, const PartitionWindowSpec&) =
      default;
};

/// Architecture overrides on top of the default Fig. 1 deployment — the
/// design-space coordinates `evsys synthesize` explores. Every list is
/// keyed by *original* frame identifier and kept in canonical form
/// (strictly increasing ids) so that equal designs compare equal and
/// serialization is deterministic. An empty ArchSpec is the stock
/// architecture; such specs emit no `arch.*` lines at all.
struct ArchSpec {
  std::vector<FrameBusSpec> frame_buses;        ///< Sorted by frame_id.
  std::vector<FrameIdSpec> frame_ids;           ///< Sorted by frame_id.
  std::vector<FrSlotSpec> fr_slots;             ///< Sorted by frame_id.
  std::vector<PartitionWindowSpec> partitions;  ///< In window order.

  [[nodiscard]] bool empty() const {
    return frame_buses.empty() && frame_ids.empty() && fr_slots.empty() &&
           partitions.empty();
  }

  /// Move `frame_id` to `bus`, replacing any existing entry for the frame.
  void set_frame_bus(std::uint32_t frame_id, const std::string& bus);
  /// Drop the placement override for `frame_id` (frame returns home).
  void clear_frame_bus(std::uint32_t frame_id);
  /// Reassign `frame_id`'s wire identifier. `new_id == frame_id` removes
  /// the entry (identity overrides are never stored).
  void set_frame_id(std::uint32_t frame_id, std::uint32_t new_id);
  /// Pin `frame_id` to static slot `slot`, replacing any existing entry.
  void set_fr_slot(std::uint32_t frame_id, std::uint64_t slot);
  /// Drop all static-slot assignments (default slot order).
  void clear_fr_slots();
  /// Replace the partition window plan wholesale (order = window order).
  void set_partition_windows(std::vector<PartitionWindowSpec> windows);

  /// Bus index (kArchBusNames order) that carries the frame originally
  /// numbered `frame_id`: its frame_bus target, else its home bus. A wire
  /// id is unique per bus, so this is the scope in which two frame_id
  /// entries may not assign the same new_id.
  [[nodiscard]] std::size_t bus_of(std::uint32_t frame_id) const;

  friend bool operator==(const ArchSpec&, const ArchSpec&) = default;
};

/// Fig. 1 bus scenario names in bus-index order — the only values
/// `FrameBusSpec::bus` accepts.
inline constexpr const char* kArchBusNames[] = {
    "body_lin", "comfort_can", "infotainment_most", "safety_can",
    "chassis_flexray"};
inline constexpr std::size_t kArchBusCount = 5;

/// Index of \p bus in kArchBusNames, or kArchBusCount when it names no
/// Fig. 1 bus.
[[nodiscard]] std::size_t arch_bus_index(const std::string& bus);

/// Home bus index of the frame originally numbered \p frame_id, by its
/// Fig. 1 id block: where an empty ArchSpec places it.
[[nodiscard]] std::size_t home_bus(std::uint32_t frame_id) noexcept;

/// Which pluggable subsystems the composition root attaches.
struct SubsystemsSpec {
  bool obs = true;        ///< Metrics registry + kernel/bus/middleware observers.
  bool faults = false;    ///< FaultPlan + health watcher + degradation manager.
  bool health = false;    ///< Middleware heartbeat watchdog.
  bool security = false;  ///< Authenticated telemetry frames on the chassis bus.

  friend bool operator==(const SubsystemsSpec&, const SubsystemsSpec&) = default;
};

/// The drive mission.
struct DriveSpec {
  CycleKind cycle = CycleKind::kUrban;
  std::uint64_t repeat = 1;  ///< Cycle repetitions driven back to back.

  friend bool operator==(const DriveSpec&, const DriveSpec&) = default;
};

/// One complete declarative scenario.
struct ScenarioSpec {
  std::string name = "scenario";
  DriveSpec drive;
  PackSpec pack;
  BmsSpec bms;
  PowertrainSpec powertrain;
  NetworkSpec network;
  TimingSpec timing;
  SubsystemsSpec subsystems;
  ArchSpec arch;                       ///< Architecture overrides (may be empty).
  std::uint64_t fault_seed = 1;        ///< Seed of the FaultPlan RNG.
  std::vector<FaultEventSpec> faults;  ///< Planned injections (may be empty).

  /// Throws std::invalid_argument naming the first violated constraint:
  /// positive periods/rates/counts, SoC values in [0, 1], non-negative
  /// injection times, targets present where the kind needs one.
  void validate() const;

  /// Renders every field as one `key = value` line (doubles in shortest
  /// round-trippable form). from_text(to_text(s)) == s for any valid spec.
  [[nodiscard]] std::string to_text() const;

  /// Parses the to_text() format: `#` comments and blank lines ignored,
  /// unknown and duplicate keys rejected, missing keys keep their defaults.
  /// Throws std::invalid_argument with the offending line on any malformed
  /// input, and validate()s the result before returning it.
  [[nodiscard]] static ScenarioSpec from_text(const std::string& text);

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Enum names as they appear in scenario text.
[[nodiscard]] std::string to_string(CycleKind kind);
[[nodiscard]] std::string to_string(Balancing balancing);
[[nodiscard]] std::string to_string(FaultKind kind);

/// Reads and parses a scenario file. Throws std::invalid_argument when the
/// file cannot be read or fails to parse.
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

/// Writes spec.to_text() to \p path; returns false when the file cannot be
/// opened.
bool save_scenario_file(const ScenarioSpec& spec, const std::string& path);

/// Shortest decimal form of \p value that parses back to the same double —
/// the deterministic number format of scenario text (and of every exporter
/// fed from it).
[[nodiscard]] std::string format_double(double value);

/// The closed integer grammars of scenario text, for every other surface
/// that reads an integer (CLI flags, fault targets): u64 is `digits`, i64 is
/// `-?digits` — no whitespace, no '+', no overflow. nullopt on anything else.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text);
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view text);

}  // namespace ev::config

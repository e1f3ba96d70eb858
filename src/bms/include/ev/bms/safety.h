/// \file safety.h
/// BMS safety monitor. The paper notes that exceeding a Li-Ion cell's
/// operating bounds damages the battery and in the worst case causes a
/// thermal runaway; this monitor implements the standard debounced
/// fault-detection + contactor-trip reaction.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ev::bms {

/// Fault classes the monitor distinguishes.
enum class FaultKind {
  kNone,
  kOvervoltage,
  kUndervoltage,
  kOvertemperature,
  kOvercurrent,
  kThermalRunaway,
};

/// Reaction the monitor requests from the vehicle.
enum class SafetyAction {
  kNone,          ///< All measurements inside the envelope.
  kDerate,        ///< Warning zone: request reduced power.
  kOpenContactor, ///< Critical: isolate the pack immediately.
};

/// Monitoring thresholds. Warning thresholds sit inside the hard limits so
/// the monitor derates before it trips.
struct SafetyLimits {
  double cell_min_voltage = 3.0;
  double cell_max_voltage = 4.2;
  double warn_margin_v = 0.05;       ///< Warning band inside the voltage limits.
  double max_temperature_c = 60.0;
  double warn_temperature_c = 50.0;
  double max_discharge_current_a = 400.0;
  double max_charge_current_a = 120.0;
  /// Consecutive violating samples before a fault latches (debounce against
  /// sensor noise).
  std::size_t debounce_samples = 3;
};

/// One detected fault with its location.
struct FaultRecord {
  FaultKind kind = FaultKind::kNone;
  std::size_t cell_index = 0;   ///< Global cell index (pack-wide), 0 for pack faults.
  double value = 0.0;           ///< Offending measurement.
};

/// Debounced envelope monitor over measured cell voltages, temperatures, and
/// pack current. Latching: once kOpenContactor is reached it stays for the
/// rest of the drive (mirrors real BMS behaviour where a tripped pack needs
/// service).
class SafetyMonitor {
 public:
  explicit SafetyMonitor(SafetyLimits limits = {});

  /// Evaluates one BMS period of measurements. \p voltages and
  /// \p temperatures are pack-wide per-cell arrays; \p pack_current_a is the
  /// sensed string current (positive = discharge).
  SafetyAction evaluate(std::span<const double> voltages,
                        std::span<const double> temperatures, double pack_current_a);

  /// Faults latched so far, one record per (kind, cell): the first
  /// offending value is kept, later violations of a latched pair add
  /// nothing (thermal runaway included, which latches without debounce).
  [[nodiscard]] const std::vector<FaultRecord>& faults() const noexcept { return faults_; }
  /// True once the monitor has requested contactor opening.
  [[nodiscard]] bool tripped() const noexcept { return tripped_; }
  /// Active limits.
  [[nodiscard]] const SafetyLimits& limits() const noexcept { return limits_; }

 private:
  void count_violation(FaultKind kind, std::size_t cell, double value, bool violating) {
    // A healthy sample with no debounce pending has nothing to clear.
    if (violating || !counters_.empty()) debounce(kind, cell, value, violating);
  }
  void debounce(FaultKind kind, std::size_t cell, double value, bool violating);
  void latch(FaultKind kind, std::size_t cell, double value);

  SafetyLimits limits_;
  // Debounce counters keyed by (kind, cell); stored sparsely.
  struct Counter {
    FaultKind kind;
    std::size_t cell;
    std::size_t count;
  };
  std::vector<Counter> counters_;
  std::vector<FaultRecord> faults_;
  bool tripped_ = false;
  bool warn_ = false;
};

}  // namespace ev::bms

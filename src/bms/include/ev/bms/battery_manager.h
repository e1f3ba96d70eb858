/// \file battery_manager.h
/// Central battery-management controller of the hierarchical BMS (Fig. 2).
/// Aggregates the module managers over the (modelled) private BMS bus,
/// runs the pack-level safety monitor, commands the main contactor, and
/// publishes pack state and power limits to the rest of the vehicle.
#pragma once

#include <memory>
#include <vector>

#include "ev/battery/pack.h"
#include "ev/bms/module_manager.h"
#include "ev/bms/safety.h"

namespace ev::bms {

/// Balancing policy selection for a whole pack.
enum class BalancingKind { kNone, kPassive, kActive };

/// BMS configuration.
struct BmsConfig {
  EstimatorKind estimator = EstimatorKind::kVoltageCorrected;
  BalancingKind balancing = BalancingKind::kPassive;
  double balance_tolerance = 0.003;  ///< SoC spread below which balancing rests.
  SafetyLimits safety_limits;
  double initial_soc_estimate = 0.9;  ///< Start value for every estimator.
};

/// Pack-level state published after each BMS period.
struct BmsReport {
  double pack_soc = 0.0;           ///< Mean estimated SoC.
  double min_cell_soc = 0.0;       ///< Lowest estimated cell SoC.
  double max_cell_soc = 0.0;       ///< Highest estimated cell SoC.
  double soc_spread = 0.0;         ///< max - min estimate.
  double min_cell_voltage = 0.0;   ///< Lowest measured cell voltage [V].
  double max_cell_voltage = 0.0;   ///< Highest measured cell voltage [V].
  double max_temperature_c = 0.0;  ///< Hottest measured cell [degC].
  SafetyAction action = SafetyAction::kNone;
  double discharge_power_limit_w = 0.0;  ///< Derated available discharge power.
  double charge_power_limit_w = 0.0;     ///< Derated available charge power.
  bool balanced = true;                  ///< All modules within tolerance.
};

/// Central BMS. Owns one ModuleManager per pack module plus the safety
/// monitor; step() runs one BMS period end to end.
class BatteryManager {
 public:
  /// Wires a manager for \p pack with policy/estimator per \p config. The
  /// pack is referenced for layout only; it is passed again to step().
  BatteryManager(const battery::Pack& pack, BmsConfig config);

  /// One BMS period: per-module measurement/estimation/balancing, pack-level
  /// safety evaluation, contactor command, report synthesis. Allocates
  /// nothing: the module sweep writes straight into the pack-length lanes.
  BmsReport step(battery::Pack& pack, double dt_s, util::Rng& rng);

  /// Last produced report.
  [[nodiscard]] const BmsReport& report() const noexcept { return report_; }
  /// Safety monitor (latched faults are readable here).
  [[nodiscard]] const SafetyMonitor& safety() const noexcept { return safety_; }
  /// Module manager \p i.
  [[nodiscard]] const ModuleManager& module_manager(std::size_t i) const {
    return managers_.at(i);
  }
  /// Configuration in force.
  [[nodiscard]] const BmsConfig& config() const noexcept { return config_; }

  /// Injects \p fault into the voltage sensor of pack-wide cell
  /// \p global_cell (module-major order); throws std::out_of_range past the
  /// pack. The fault surfaces only through measurements, so detection runs
  /// through the SafetyMonitor's debounce path exactly like a real failure.
  void inject_voltage_sensor_fault(std::size_t global_cell, const battery::SensorFault& fault);
  /// Same for the temperature sensor of pack-wide cell \p global_cell.
  void inject_temperature_sensor_fault(std::size_t global_cell,
                                       const battery::SensorFault& fault);

 private:
  [[nodiscard]] std::unique_ptr<BalancingStrategy> make_strategy() const;

  BmsConfig config_;
  // Pack-length per-cell lanes in module-major order; each manager reads and
  // writes its own subspan (moving the vectors keeps their buffers, so the
  // subspans stay valid when the BatteryManager moves).
  std::vector<double> voltages_;
  std::vector<double> temperatures_;
  std::vector<double> estimates_;
  std::vector<ModuleManager> managers_;
  SafetyMonitor safety_;
  BmsReport report_;
};

}  // namespace ev::bms

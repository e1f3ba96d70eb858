/// \file module_manager.h
/// Module-management device of the hierarchical BMS (Fig. 2): the per-module
/// controller that owns the cell sensor front-end, runs per-cell SoC
/// estimation, and actuates the module's balancing hardware according to the
/// configured policy.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ev/battery/module.h"
#include "ev/battery/sensors.h"
#include "ev/bms/balancing.h"
#include "ev/bms/soc_estimator.h"
#include "ev/util/rng.h"

namespace ev::bms {

/// Which SoC estimator each cell runs.
enum class EstimatorKind { kCoulombCounting, kVoltageCorrected };

/// Per-cell lanes a ModuleManager reads and writes, one element per cell of
/// its module. The BatteryManager hands each manager subspans of pack-length
/// lanes, so one sweep fills the pack-wide arrays the safety monitor and the
/// report read.
struct ModuleLanes {
  std::span<double> voltage;      ///< Measured terminal voltage [V].
  std::span<double> temperature;  ///< Measured temperature [degC].
  std::span<double> estimate;     ///< Estimated SoC (the estimator state).
};

/// Per-module BMS controller. Holds no reference to the module; the module
/// is passed to step() so the manager can be wired to any instance (and so
/// ownership stays with the battery pack).
class ModuleManager {
 public:
  /// Creates a manager over \p lanes (three equally sized, non-empty spans
  /// that must outlive it) for a module whose believed cell capacity is
  /// \p capacity_ah, starting every estimate at \p initial_soc.
  ModuleManager(ModuleLanes lanes, double capacity_ah, double initial_soc,
                EstimatorKind estimator, std::shared_ptr<const battery::OcvCurve> curve,
                double r0_ohm, std::unique_ptr<BalancingStrategy> strategy);

  /// One BMS period: measure every cell through the sensors (voltage then
  /// temperature, cell by cell), update the estimators with
  /// \p sensed_string_current_a, and run the balancing policy on \p module
  /// against \p pack_target_soc (pass 1.0 / a local value when no pack-wide
  /// target is known yet). Randomness for sensor noise comes from \p rng.
  void step(battery::SeriesModule& module, double sensed_string_current_a, double dt_s,
            util::Rng& rng, double pack_target_soc = 1.0);

  /// Estimated SoC per cell after the last step() (the estimate lane; the
  /// measurements are read from the lanes' owner).
  [[nodiscard]] std::span<const double> estimated_soc() const noexcept {
    return lanes_.estimate;
  }
  /// The balancing policy in force.
  [[nodiscard]] const BalancingStrategy& strategy() const noexcept { return *strategy_; }
  /// True when the policy reports the module balanced.
  [[nodiscard]] bool balanced() const;
  /// Cells supervised by this manager.
  [[nodiscard]] std::size_t cell_count() const noexcept { return lanes_.estimate.size(); }

  /// Injects \p fault into the voltage sensor of local cell \p cell (throws
  /// std::out_of_range past the module). Used by the fault-injection layer;
  /// the corrupted measurement then flows through the estimator and the
  /// SafetyMonitor's debounce path like any real reading.
  void inject_voltage_fault(std::size_t cell, const battery::SensorFault& fault);
  /// Same for the temperature sensor of local cell \p cell.
  void inject_temperature_fault(std::size_t cell, const battery::SensorFault& fault);

 private:
  // Every cell of a module runs the same estimator with the same believed
  // parameters, so the per-cell estimator state is just the estimate itself
  // (the estimate lane) and the shared parameters live once here; step()
  // applies the update law of soc_estimator.h over the whole module instead
  // of virtual-dispatching per cell.
  EstimatorKind estimator_kind_;
  double capacity_ah_;
  double r0_ohm_;
  double observer_gain_ = 0.02;  // VoltageCorrectedEstimator's default gain
  std::shared_ptr<const battery::OcvCurve> curve_;
  std::vector<battery::VoltageSensor> voltage_sensors_;
  std::vector<battery::TemperatureSensor> temperature_sensors_;
  std::unique_ptr<BalancingStrategy> strategy_;
  ModuleLanes lanes_;
};

}  // namespace ev::bms

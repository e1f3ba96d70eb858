/// \file pack.h
/// The traction battery pack: series-connected modules behind a main
/// contactor, with the pack-level current sensor and power switch shown in
/// the paper's Fig. 2. Includes a builder that applies realistic
/// manufacturing spread across cells.
#pragma once

#include <cstddef>
#include <vector>

#include "ev/battery/module.h"
#include "ev/battery/sensors.h"
#include "ev/util/rng.h"

namespace ev::battery {

/// Construction parameters for a pack.
struct PackConfig {
  std::size_t module_count = 8;        ///< Series modules in the pack.
  std::size_t cells_per_module = 12;   ///< Series cells per module.
  CellParameters cell;                 ///< Base cell parameters.
  BalancingHardware balancing;         ///< Balancing hardware per module.
  double initial_soc = 0.9;            ///< Mean initial SoC.
  double soc_spread_sigma = 0.015;     ///< Std-dev of per-cell initial SoC.
  double capacity_spread_sigma = 0.01; ///< Relative std-dev of cell capacity.
  double r0_spread_sigma = 0.05;       ///< Relative std-dev of cell R0.
  bool use_lfp_chemistry = false;      ///< LFP instead of NMC OCV curve.
};

/// Aggregated pack status after a step.
struct PackStatus {
  ModuleStatus worst;          ///< Worst module status.
  bool contactor_closed = true;  ///< Main contactor state during the step.
};

/// Series pack of modules with contactor and pack current sensor. Besides
/// the per-module balancing hardware, the pack carries one module-to-module
/// transfer converter (the modular concurrent-balancing architecture of the
/// paper's ref [2]) so charge can be moved across module boundaries.
class Pack {
 public:
  /// Builds a pack per \p config, drawing manufacturing spread from \p rng.
  Pack(const PackConfig& config, util::Rng& rng);

  /// Commands the pack-level converter to move charge from \p from_module
  /// to \p to_module until changed or cleared.
  void command_module_transfer(std::size_t from_module, std::size_t to_module);
  /// Stops the pack-level transfer.
  void clear_module_transfer() noexcept { module_transfer_active_ = false; }
  /// True while a module-to-module transfer is commanded.
  [[nodiscard]] bool module_transfer_active() const noexcept {
    return module_transfer_active_;
  }

  /// Advances the pack by \p dt_s under terminal current \p current_a
  /// (positive = discharge). With the contactor open, the string current is
  /// forced to zero but balancing hardware keeps operating.
  PackStatus step(double current_a, double dt_s, double ambient_c = 25.0);

  /// Pack terminal voltage under \p current_a [V]; zero with open contactor.
  [[nodiscard]] double terminal_voltage(double current_a = 0.0) const noexcept;
  /// Sum of module open-circuit voltages [V], regardless of contactor.
  [[nodiscard]] double open_circuit_voltage() const noexcept;

  /// Main contactor control (the "power switch" of Fig. 2).
  void open_contactor() noexcept { contactor_closed_ = false; }
  [[nodiscard]] bool contactor_closed() const noexcept { return contactor_closed_; }

  /// Number of modules.
  [[nodiscard]] std::size_t module_count() const noexcept { return modules_.size(); }
  /// Access to module \p i.
  [[nodiscard]] const SeriesModule& module(std::size_t i) const { return modules_.at(i); }
  [[nodiscard]] SeriesModule& module(std::size_t i) { return modules_.at(i); }
  /// Total number of series cells.
  [[nodiscard]] std::size_t cell_count() const noexcept;

  /// Lowest / highest true SoC across all cells.
  [[nodiscard]] double min_soc() const noexcept;
  [[nodiscard]] double max_soc() const noexcept;
  /// Mean true SoC across all cells.
  [[nodiscard]] double mean_soc() const noexcept;

  /// Usable energy until the weakest cell empties, at nominal voltage [Wh].
  /// In a series string the *minimum* cell bounds pack capacity — the root
  /// cause of the balancing requirement discussed in the paper.
  [[nodiscard]] double usable_energy_wh() const noexcept;

  /// Energy dissipated in bleed resistors across all modules [J].
  [[nodiscard]] double total_bleed_energy_j() const noexcept;
  /// Energy lost in active-transfer converters across all modules [J].
  [[nodiscard]] double total_transfer_loss_j() const noexcept;

  /// Last current the pack-level sensor reported [A]; updated by step().
  [[nodiscard]] double sensed_current_a() const noexcept { return sensed_current_a_; }

 private:
  std::vector<SeriesModule> modules_;
  CurrentSensor current_sensor_;
  util::Rng* rng_;
  bool contactor_closed_ = true;
  double sensed_current_a_ = 0.0;
  bool module_transfer_active_ = false;
  std::size_t transfer_from_module_ = 0;
  std::size_t transfer_to_module_ = 0;
  double module_transfer_loss_j_ = 0.0;
};

}  // namespace ev::battery

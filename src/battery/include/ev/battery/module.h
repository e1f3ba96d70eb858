/// \file module.h
/// A battery module: series-connected cells plus the per-cell balancing
/// hardware (passive bleed resistors and an active charge-transfer unit)
/// that the module-management devices of the paper's Fig. 2 control.
///
/// Cell state is stored structure-of-arrays (CellBatch) and advanced with one
/// batched loop per step; cell(i) hands out lightweight views for the BMS,
/// sensor, and fault-injection call sites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ev/battery/cell.h"
#include "ev/battery/cell_batch.h"
#include "ev/battery/ocv_curve.h"

namespace ev::battery {

/// Aggregated safety status across the cells of one module.
struct ModuleStatus {
  CellStatus worst;           ///< OR of all per-cell flags.
  std::size_t alarm_count = 0;  ///< Number of cells with any flag raised.
};

/// Balancing hardware parameters of a module.
struct BalancingHardware {
  double bleed_resistor_ohm = 33.0;   ///< Passive bleed resistor per cell.
  double transfer_current_a = 5.0;    ///< Active transfer current capability.
  double transfer_efficiency = 0.92;  ///< Charge ratio delivered by the active converter.
};

/// Series string of cells with per-cell balancing actuators. The module does
/// not decide *when* to balance — that is BMS policy (ev::bms) — it only
/// models the electrical consequences of the actuator commands.
class SeriesModule {
 public:
  /// Builds a module from \p cells (at least one) of chemistry \p curve and
  /// the given balancing hardware. The cells are adopted into SoA batch
  /// storage.
  SeriesModule(const std::vector<CellInit>& cells, OcvCurve curve, BalancingHardware hw = {});

  /// True when the bleed switch of cell \p i is closed.
  [[nodiscard]] bool bleed_engaged(std::size_t i) const;
  /// Releases every bleed switch.
  void clear_bleed() noexcept;
  /// Bleed switch states, one per cell (nonzero = closed), for whole-module
  /// sweeps; indexes into the span are not checked, unlike bleed_engaged().
  [[nodiscard]] std::span<std::uint8_t> bleed_flags() noexcept { return bleed_on_; }
  [[nodiscard]] std::span<const std::uint8_t> bleed_flags() const noexcept { return bleed_on_; }

  /// Commands the active unit to move charge from cell \p from to cell
  /// \p to at the hardware transfer current until changed or cleared.
  /// Only one transfer can be active per module (matching a single shared
  /// converter, the common cost-optimized design).
  void command_transfer(std::size_t from, std::size_t to);
  /// Stops any active transfer.
  void clear_transfer() noexcept;
  /// True while an active transfer is commanded.
  [[nodiscard]] bool transfer_active() const noexcept { return transfer_active_; }

  /// Advances every cell by \p dt_s under string current \p current_a
  /// (positive = discharge), applying bleed and transfer currents. Returns
  /// the aggregated safety status.
  ModuleStatus step(double current_a, double dt_s, double ambient_c = 25.0);

  /// Module terminal voltage under \p current_a [V].
  [[nodiscard]] double terminal_voltage(double current_a = 0.0) const noexcept;
  /// Number of series cells.
  [[nodiscard]] std::size_t cell_count() const noexcept { return batch_.size(); }
  /// Read view of cell \p i.
  [[nodiscard]] CellConstView cell(std::size_t i) const {
    check_index(i);
    return CellConstView{batch_, i};
  }
  /// Mutable view of cell \p i (used by fault-injection tests).
  [[nodiscard]] CellView cell(std::size_t i) {
    check_index(i);
    return CellView{batch_, i};
  }
  /// The cell lanes, for whole-module sweeps that index every cell in
  /// [0, cell_count()) through CellConstView without a per-cell check.
  [[nodiscard]] const CellBatch& batch() const noexcept { return batch_; }
  /// Lossless charge transfer of \p coulombs into (+) or out of (-) every
  /// cell, as a converter tapping the whole series string delivers it.
  void inject_charge_all(double coulombs) noexcept;
  /// Lowest true SoC across cells.
  [[nodiscard]] double min_soc() const noexcept;
  /// Highest true SoC across cells.
  [[nodiscard]] double max_soc() const noexcept;
  /// Max-min SoC spread, the quantity balancing drives to zero.
  [[nodiscard]] double soc_spread() const noexcept { return max_soc() - min_soc(); }
  /// Energy dissipated in bleed resistors so far [J].
  [[nodiscard]] double bleed_energy_j() const noexcept { return bleed_energy_j_; }
  /// Energy lost in the active transfer converter so far [J].
  [[nodiscard]] double transfer_loss_j() const noexcept { return transfer_loss_j_; }
  /// Balancing hardware parameters.
  [[nodiscard]] const BalancingHardware& hardware() const noexcept { return hw_; }

 private:
  void check_index(std::size_t i) const;

  CellBatch batch_;
  std::vector<std::uint8_t> bleed_on_;
  BalancingHardware hw_;
  bool transfer_active_ = false;
  std::size_t transfer_from_ = 0;
  std::size_t transfer_to_ = 0;
  double bleed_energy_j_ = 0.0;
  double transfer_loss_j_ = 0.0;
  // Per-cell current/heat staging for the batched step; member scratch so the
  // steady-state step performs no allocation.
  std::vector<double> scratch_current_;
  std::vector<double> scratch_heat_;
};

}  // namespace ev::battery

/// \file cell_batch.h
/// The cell integrator: structure-of-arrays state for the cells of one
/// series module, advanced by step_all() in one tight loop. Continuous state
/// is advanced by fixed-step explicit integration; the step sizes used across
/// evsys (10-100 ms) are far below the smallest RC time constant, keeping
/// the explicit scheme stable and accurate.
///
/// The polarization decay factors exp(-dt/tau) depend only on dt and the RC
/// parameters, so they are cached per cell and recomputed only when the step
/// size changes; with a fixed simulation step this removes the two exp()
/// calls per cell per step.
///
/// The open-circuit voltage is a lane too: ocv_[i] == curve.voltage(soc_[i])
/// holds bit for bit at all times, because every write of soc_ (constructor,
/// step_all(), inject_charge()) refreshes it. Everything that reads a cell's
/// OCV or terminal voltage between two steps reads the lane, so the plant
/// looks the curve up once per cell per step.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ev/battery/cell.h"
#include "ev/battery/ocv_curve.h"

namespace ev::battery {

/// Initial condition of one cell adopted into a CellBatch.
struct CellInit {
  CellParameters params;  ///< Per-cell parameters (manufacturing spread applied).
  double soc = 0.5;       ///< Initial state of charge, clamped to [0,1] on adoption.
  double temp_c = 25.0;   ///< Initial temperature [degC].
};

/// Aggregated safety outcome of one step_all() over the whole batch.
struct BatchStatus {
  CellStatus worst;             ///< OR of all per-cell flags.
  std::size_t alarm_count = 0;  ///< Number of cells with any flag raised.
};

/// SoA cell state for a fixed set of cells sharing one chemistry. Each cell
/// starts at its nominal capacity with relaxed polarization branches; reads
/// go through CellConstView, updates through step_all() and inject_charge().
class CellBatch {
 public:
  /// Adopts \p cells (at least one) with OCV characteristic \p curve.
  CellBatch(const std::vector<CellInit>& cells, OcvCurve curve);

  /// Number of cells in the batch.
  [[nodiscard]] std::size_t size() const noexcept { return soc_.size(); }

  /// Advances every cell by \p dt_s under \p ambient_c ambient temperature.
  /// \p current_a and \p extra_heat_w give the per-cell current (positive =
  /// discharge) and externally generated heat (e.g. a bleed resistor mounted
  /// on the cell); both spans must have size() elements.
  BatchStatus step_all(std::span<const double> current_a, std::span<const double> extra_heat_w,
                       double dt_s, double ambient_c);

  /// Transfers \p coulombs of charge directly into (+) or out of (-) cell
  /// \p i without ohmic loss, used by the active-balancing hardware model
  /// which accounts for converter efficiency itself. \p i is not checked.
  void inject_charge(std::size_t i, double coulombs) noexcept;

  /// OCV characteristic shared by every cell of the batch.
  [[nodiscard]] const OcvCurve& ocv_curve() const noexcept { return curve_; }

 private:
  friend class CellConstView;

  void refresh_coefficients(double dt_s);

  // Hot per-cell state, one lane per quantity.
  std::vector<double> soc_;
  std::vector<double> ocv_;  // curve_.voltage(soc_[i]), refreshed with soc_
  std::vector<double> capacity_ah_;
  std::vector<double> v_rc1_;
  std::vector<double> v_rc2_;
  std::vector<double> temp_c_;
  std::vector<double> throughput_ah_;
  // Cached polarization coefficients for the current step size:
  // a = exp(-dt/tau), k = r * (1 - a).
  std::vector<double> a1_;
  std::vector<double> k1_;
  std::vector<double> a2_;
  std::vector<double> k2_;
  double cached_dt_s_ = -1.0;
  // Cold per-cell data: the full parameter block (rarely touched inside the
  // step loop, needed verbatim by params()).
  std::vector<CellParameters> params_;
  OcvCurve curve_;
};

/// Read view of one cell inside a CellBatch. Views are cheap value types
/// (pointer + index) and must not outlive their batch.
class CellConstView {
 public:
  CellConstView(const CellBatch& batch, std::size_t index) noexcept
      : batch_(&batch), index_(index) {}

  /// True state of charge in [0,1] (simulation ground truth; the BMS must
  /// estimate it from sensors instead of reading this).
  [[nodiscard]] double soc() const noexcept { return batch_->soc_[index_]; }
  /// Terminal voltage under \p current_a load at the present state [V].
  [[nodiscard]] double terminal_voltage(double current_a = 0.0) const noexcept {
    // Discharge current drops voltage across R0 and drives the RC branches.
    return open_circuit_voltage() - current_a * params().r0_ohm - v_rc1() - v_rc2();
  }
  /// Open-circuit voltage at the present SoC [V] (the batch's OCV lane).
  [[nodiscard]] double open_circuit_voltage() const noexcept { return batch_->ocv_[index_]; }
  /// Cell temperature [degC].
  [[nodiscard]] double temperature_c() const noexcept { return batch_->temp_c_[index_]; }
  /// Present (faded) capacity [Ah].
  [[nodiscard]] double capacity_ah() const noexcept { return batch_->capacity_ah_[index_]; }
  /// State of health: present capacity over nominal capacity, in (0,1].
  [[nodiscard]] double state_of_health() const noexcept {
    return capacity_ah() / params().capacity_ah;
  }
  /// Remaining charge [C].
  [[nodiscard]] double charge_coulomb() const noexcept {
    return soc() * capacity_ah() * 3600.0;
  }
  /// Total absolute charge throughput so far [Ah].
  [[nodiscard]] double throughput_ah() const noexcept {
    return batch_->throughput_ah_[index_];
  }
  /// Polarization branch voltages [V].
  [[nodiscard]] double v_rc1() const noexcept { return batch_->v_rc1_[index_]; }
  [[nodiscard]] double v_rc2() const noexcept { return batch_->v_rc2_[index_]; }
  /// Model parameters.
  [[nodiscard]] const CellParameters& params() const noexcept {
    return batch_->params_[index_];
  }
  /// OCV characteristic.
  [[nodiscard]] const OcvCurve& ocv_curve() const noexcept { return batch_->curve_; }

 protected:
  const CellBatch* batch_;
  std::size_t index_;
};

/// Mutable view of one cell: the read view plus the charge-injection hook
/// used by balancing hardware and fault-injection tests.
class CellView : public CellConstView {
 public:
  CellView(CellBatch& batch, std::size_t index) noexcept
      : CellConstView(batch, index), mutable_batch_(&batch) {}

  /// Lossless direct charge transfer into (+) or out of (-) this cell.
  void inject_charge(double coulombs) noexcept {
    mutable_batch_->inject_charge(index_, coulombs);
  }

 private:
  CellBatch* mutable_batch_;
};

}  // namespace ev::battery

#include "ev/bms/module_manager.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "ev/util/math.h"

namespace ev::bms {

ModuleManager::ModuleManager(ModuleLanes lanes, double capacity_ah, double initial_soc,
                             EstimatorKind estimator,
                             std::shared_ptr<const battery::OcvCurve> curve, double r0_ohm,
                             std::unique_ptr<BalancingStrategy> strategy)
    : estimator_kind_(estimator),
      capacity_ah_(capacity_ah),
      r0_ohm_(r0_ohm),
      curve_(std::move(curve)),
      strategy_(std::move(strategy)),
      lanes_(lanes) {
  const std::size_t cell_count = lanes_.estimate.size();
  if (cell_count == 0) throw std::invalid_argument("ModuleManager: cell_count must be > 0");
  if (lanes_.voltage.size() != cell_count || lanes_.temperature.size() != cell_count)
    throw std::invalid_argument("ModuleManager: lanes differ in length");
  if (!strategy_) throw std::invalid_argument("ModuleManager: strategy is null");
  if (capacity_ah <= 0.0)
    throw std::invalid_argument("ModuleManager: capacity must be positive");
  if (estimator == EstimatorKind::kVoltageCorrected && !curve_)
    throw std::invalid_argument("ModuleManager: voltage-corrected needs an OCV curve");
  voltage_sensors_.resize(cell_count);
  temperature_sensors_.resize(cell_count);
  std::fill(lanes_.estimate.begin(), lanes_.estimate.end(), util::clamp(initial_soc, 0.0, 1.0));
  std::fill(lanes_.voltage.begin(), lanes_.voltage.end(), 0.0);
  std::fill(lanes_.temperature.begin(), lanes_.temperature.end(), 25.0);
}

void ModuleManager::step(battery::SeriesModule& module, double sensed_string_current_a,
                         double dt_s, util::Rng& rng, double pack_target_soc) {
  const std::size_t n = std::min(cell_count(), module.cell_count());
  const battery::CellBatch& cells = module.batch();
  const std::span<const std::uint8_t> bleed = module.bleed_flags();
  const double bleed_ohm = module.hardware().bleed_resistor_ohm;
  for (std::size_t i = 0; i < n; ++i) {
    const battery::CellConstView cell{cells, i};
    const double v =
        voltage_sensors_[i].measure(cell.terminal_voltage(sensed_string_current_a), rng);
    lanes_.voltage[i] = v;
    lanes_.temperature[i] = temperature_sensors_[i].measure(cell.temperature_c(), rng);
    // The manager knows its own actuator state, so it corrects the cell
    // current for an engaged bleed resistor.
    double cell_current = sensed_string_current_a;
    if (bleed[i] != 0) cell_current += v / bleed_ohm;
    double& soc = lanes_.estimate[i];
    switch (estimator_kind_) {
      case EstimatorKind::kCoulombCounting:
        soc = coulomb_counting_update(soc, cell_current, dt_s, capacity_ah_);
        break;
      case EstimatorKind::kVoltageCorrected:
        soc = voltage_corrected_update(soc, cell_current, v, dt_s, capacity_ah_, *curve_,
                                       r0_ohm_, observer_gain_);
        break;
    }
  }
  const std::span<const double> estimates = estimated_soc();
  const double local_min = *std::min_element(estimates.begin(), estimates.end());
  strategy_->decide(estimates, module, std::min(pack_target_soc, local_min));
}

bool ModuleManager::balanced() const { return strategy_->converged(lanes_.estimate); }

void ModuleManager::inject_voltage_fault(std::size_t cell, const battery::SensorFault& fault) {
  voltage_sensors_.at(cell).inject_fault(fault);
}

void ModuleManager::inject_temperature_fault(std::size_t cell,
                                             const battery::SensorFault& fault) {
  temperature_sensors_.at(cell).inject_fault(fault);
}

}  // namespace ev::bms

#include "ev/bms/battery_manager.h"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>

namespace ev::bms {

std::unique_ptr<BalancingStrategy> BatteryManager::make_strategy() const {
  switch (config_.balancing) {
    case BalancingKind::kNone: return std::make_unique<NoBalancer>();
    case BalancingKind::kPassive:
      return std::make_unique<PassiveBalancer>(config_.balance_tolerance);
    case BalancingKind::kActive:
      return std::make_unique<ActiveBalancer>(config_.balance_tolerance);
  }
  return std::make_unique<NoBalancer>();
}

BatteryManager::BatteryManager(const battery::Pack& pack, BmsConfig config)
    : config_(config),
      voltages_(pack.cell_count()),
      temperatures_(pack.cell_count()),
      estimates_(pack.cell_count()),
      safety_(config.safety_limits) {
  managers_.reserve(pack.module_count());
  std::size_t first = 0;
  for (std::size_t m = 0; m < pack.module_count(); ++m) {
    const battery::SeriesModule& mod = pack.module(m);
    const std::size_t n = mod.cell_count();
    const ModuleLanes lanes{std::span(voltages_).subspan(first, n),
                            std::span(temperatures_).subspan(first, n),
                            std::span(estimates_).subspan(first, n)};
    first += n;
    const auto c0 = mod.cell(0);
    auto curve = std::make_shared<const battery::OcvCurve>(c0.ocv_curve());
    managers_.emplace_back(lanes, c0.params().capacity_ah, config.initial_soc_estimate,
                           config.estimator, std::move(curve), c0.params().r0_ohm,
                           make_strategy());
  }
}

void BatteryManager::inject_voltage_sensor_fault(std::size_t global_cell,
                                                 const battery::SensorFault& fault) {
  for (ModuleManager& mm : managers_) {
    if (global_cell < mm.cell_count()) {
      mm.inject_voltage_fault(global_cell, fault);
      return;
    }
    global_cell -= mm.cell_count();
  }
  throw std::out_of_range("BatteryManager: global_cell beyond pack");
}

void BatteryManager::inject_temperature_sensor_fault(std::size_t global_cell,
                                                     const battery::SensorFault& fault) {
  for (ModuleManager& mm : managers_) {
    if (global_cell < mm.cell_count()) {
      mm.inject_temperature_fault(global_cell, fault);
      return;
    }
    global_cell -= mm.cell_count();
  }
  throw std::out_of_range("BatteryManager: global_cell beyond pack");
}

BmsReport BatteryManager::step(battery::Pack& pack, double dt_s, util::Rng& rng) {
  const double sensed_current = pack.sensed_current_a();

  // Pack-wide equalization target from the previous period's estimates (the
  // central manager's contribution to the hierarchical architecture).
  double pack_target = 1.0;
  for (double est : estimates_) pack_target = std::min(pack_target, est);

  bool balanced = true;
  for (std::size_t m = 0; m < managers_.size(); ++m) {
    managers_[m].step(pack.module(m), sensed_current, dt_s, rng, pack_target);
    balanced = balanced && managers_[m].balanced();
  }

  // Active balancing across module boundaries: move charge from the module
  // with the highest mean estimate to the one with the lowest while their
  // means disagree by more than the tolerance.
  if (config_.balancing == BalancingKind::kActive && managers_.size() > 1) {
    std::size_t hi = 0, lo = 0;
    double hi_mean = -1.0, lo_mean = 2.0;
    for (std::size_t m = 0; m < managers_.size(); ++m) {
      double mean = 0.0;
      for (double est : managers_[m].estimated_soc()) mean += est;
      mean /= static_cast<double>(managers_[m].estimated_soc().size());
      if (mean > hi_mean) { hi_mean = mean; hi = m; }
      if (mean < lo_mean) { lo_mean = mean; lo = m; }
    }
    if (hi != lo && hi_mean - lo_mean > config_.balance_tolerance)
      pack.command_module_transfer(hi, lo);
    else
      pack.clear_module_transfer();
    balanced = balanced && hi_mean - lo_mean <= config_.balance_tolerance;
  }

  report_.action = safety_.evaluate(voltages_, temperatures_, sensed_current);
  if (report_.action == SafetyAction::kOpenContactor) pack.open_contactor();

  const auto [vmin, vmax] = std::minmax_element(voltages_.begin(), voltages_.end());
  const auto [smin, smax] = std::minmax_element(estimates_.begin(), estimates_.end());
  report_.min_cell_voltage = *vmin;
  report_.max_cell_voltage = *vmax;
  report_.max_temperature_c = *std::max_element(temperatures_.begin(), temperatures_.end());
  report_.min_cell_soc = *smin;
  report_.max_cell_soc = *smax;
  report_.soc_spread = *smax - *smin;
  double sum = 0.0;
  for (double s : estimates_) sum += s;
  report_.pack_soc = sum / static_cast<double>(estimates_.size());
  report_.balanced = balanced;

  // Power limits: full capability in the green zone, linear derating in the
  // warning zone, zero when tripped. Capability scales with pack voltage.
  const double pack_v = pack.open_circuit_voltage();
  const double full_discharge_w = pack_v * config_.safety_limits.max_discharge_current_a;
  const double full_charge_w = pack_v * config_.safety_limits.max_charge_current_a;
  double derate = 1.0;
  if (report_.action == SafetyAction::kOpenContactor) {
    derate = 0.0;
  } else if (report_.action == SafetyAction::kDerate) {
    derate = 0.3;
  }
  // Additional SoC-based taper near the edges of the usable window.
  if (report_.min_cell_soc < 0.1) derate *= std::max(report_.min_cell_soc / 0.1, 0.05);
  report_.discharge_power_limit_w = full_discharge_w * derate;
  double charge_derate = derate;
  if (report_.max_cell_soc > 0.9)
    charge_derate *= std::max((1.0 - report_.max_cell_soc) / 0.1, 0.05);
  report_.charge_power_limit_w = full_charge_w * charge_derate;
  return report_;
}

}  // namespace ev::bms

#include "ev/bms/safety.h"

#include <algorithm>

namespace ev::bms {

SafetyMonitor::SafetyMonitor(SafetyLimits limits) : limits_(limits) {}

void SafetyMonitor::latch(FaultKind kind, std::size_t cell, double value) {
  const bool already = std::any_of(faults_.begin(), faults_.end(), [&](const FaultRecord& f) {
    return f.kind == kind && f.cell_index == cell;
  });
  if (!already) faults_.push_back(FaultRecord{kind, cell, value});
  tripped_ = true;
}

void SafetyMonitor::debounce(FaultKind kind, std::size_t cell, double value,
                             bool violating) {
  auto it = std::find_if(counters_.begin(), counters_.end(), [&](const Counter& c) {
    return c.kind == kind && c.cell == cell;
  });
  if (!violating) {
    if (it != counters_.end()) counters_.erase(it);
    return;
  }
  if (it == counters_.end()) {
    counters_.push_back(Counter{kind, cell, 1});
    it = counters_.end() - 1;
  } else {
    ++it->count;
  }
  if (it->count >= limits_.debounce_samples) latch(kind, cell, value);
}

SafetyAction SafetyMonitor::evaluate(std::span<const double> voltages,
                                     std::span<const double> temperatures,
                                     double pack_current_a) {
  warn_ = false;
  for (std::size_t i = 0; i < voltages.size(); ++i) {
    const double v = voltages[i];
    count_violation(FaultKind::kOvervoltage, i, v, v > limits_.cell_max_voltage);
    count_violation(FaultKind::kUndervoltage, i, v, v < limits_.cell_min_voltage);
    if (v > limits_.cell_max_voltage - limits_.warn_margin_v ||
        v < limits_.cell_min_voltage + limits_.warn_margin_v)
      warn_ = true;
  }
  for (std::size_t i = 0; i < temperatures.size(); ++i) {
    const double t = temperatures[i];
    count_violation(FaultKind::kOvertemperature, i, t, t > limits_.max_temperature_c);
    // Thermal runaway onset is immediate (no debounce): the reaction time
    // budget is too small to wait for confirmation samples.
    if (t > limits_.max_temperature_c + 20.0) latch(FaultKind::kThermalRunaway, i, t);
    if (t > limits_.warn_temperature_c) warn_ = true;
  }
  count_violation(FaultKind::kOvercurrent, 0, pack_current_a,
                  pack_current_a > limits_.max_discharge_current_a ||
                      -pack_current_a > limits_.max_charge_current_a);

  if (tripped_) return SafetyAction::kOpenContactor;
  if (warn_) return SafetyAction::kDerate;
  return SafetyAction::kNone;
}

}  // namespace ev::bms

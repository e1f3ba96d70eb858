#include "ev/battery/pack.h"

#include <algorithm>
#include <stdexcept>

namespace ev::battery {

Pack::Pack(const PackConfig& config, util::Rng& rng) : rng_(&rng) {
  const OcvCurve curve = config.use_lfp_chemistry ? OcvCurve::lfp() : OcvCurve::nmc();
  modules_.reserve(config.module_count);
  for (std::size_t m = 0; m < config.module_count; ++m) {
    std::vector<CellInit> cells;
    cells.reserve(config.cells_per_module);
    for (std::size_t c = 0; c < config.cells_per_module; ++c) {
      CellParameters p = config.cell;
      p.capacity_ah *= 1.0 + rng.normal(0.0, config.capacity_spread_sigma);
      p.r0_ohm *= 1.0 + rng.normal(0.0, config.r0_spread_sigma);
      const double soc = config.initial_soc + rng.normal(0.0, config.soc_spread_sigma);
      cells.push_back({p, soc});
    }
    modules_.emplace_back(cells, curve, config.balancing);
  }
}

void Pack::command_module_transfer(std::size_t from_module, std::size_t to_module) {
  if (from_module >= modules_.size() || to_module >= modules_.size())
    throw std::out_of_range("Pack::command_module_transfer: module out of range");
  if (from_module == to_module)
    throw std::invalid_argument("Pack::command_module_transfer: from == to");
  transfer_from_module_ = from_module;
  transfer_to_module_ = to_module;
  module_transfer_active_ = true;
}

PackStatus Pack::step(double current_a, double dt_s, double ambient_c) {
  PackStatus status;
  status.contactor_closed = contactor_closed_;
  const double string_current = contactor_closed_ ? current_a : 0.0;
  sensed_current_a_ = current_sensor_.measure(string_current, *rng_);

  // Pack-level module-to-module transfer: every cell of the source module
  // gives up charge; every cell of the sink module receives the converter-
  // efficiency share (the module converters tap the whole series string).
  if (module_transfer_active_) {
    SeriesModule& from = modules_[transfer_from_module_];
    SeriesModule& to = modules_[transfer_to_module_];
    const double i_t = from.hardware().transfer_current_a;
    const double eta = from.hardware().transfer_efficiency;
    double dq = i_t * dt_s;
    for (std::size_t c = 0; c < from.cell_count(); ++c)
      dq = std::min(dq, CellConstView{from.batch(), c}.charge_coulomb());
    from.inject_charge_all(-dq);
    to.inject_charge_all(dq * eta);
    module_transfer_loss_j_ +=
        dq * (1.0 - eta) * CellConstView{from.batch(), 0}.open_circuit_voltage() *
        static_cast<double>(from.cell_count());
  }

  for (auto& m : modules_) {
    const ModuleStatus ms = m.step(string_current, dt_s, ambient_c);
    status.worst.alarm_count += ms.alarm_count;
    status.worst.worst.overvoltage |= ms.worst.overvoltage;
    status.worst.worst.undervoltage |= ms.worst.undervoltage;
    status.worst.worst.overtemperature |= ms.worst.overtemperature;
    status.worst.worst.overcurrent |= ms.worst.overcurrent;
    status.worst.worst.thermal_runaway |= ms.worst.thermal_runaway;
  }
  return status;
}

double Pack::terminal_voltage(double current_a) const noexcept {
  if (!contactor_closed_) return 0.0;
  double v = 0.0;
  for (const auto& m : modules_) v += m.terminal_voltage(current_a);
  return v;
}

double Pack::open_circuit_voltage() const noexcept {
  double v = 0.0;
  for (const auto& m : modules_)
    for (std::size_t i = 0; i < m.cell_count(); ++i)
      v += CellConstView{m.batch(), i}.open_circuit_voltage();
  return v;
}

std::size_t Pack::cell_count() const noexcept {
  std::size_t n = 0;
  for (const auto& m : modules_) n += m.cell_count();
  return n;
}

double Pack::min_soc() const noexcept {
  double v = modules_.front().min_soc();
  for (const auto& m : modules_) v = std::min(v, m.min_soc());
  return v;
}

double Pack::max_soc() const noexcept {
  double v = modules_.front().max_soc();
  for (const auto& m : modules_) v = std::max(v, m.max_soc());
  return v;
}

double Pack::mean_soc() const noexcept {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& m : modules_) {
    for (std::size_t i = 0; i < m.cell_count(); ++i) {
      sum += CellConstView{m.batch(), i}.soc();
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double Pack::usable_energy_wh() const noexcept {
  // Series string: discharge ends when the weakest cell reaches empty, so the
  // usable charge equals the minimum cell charge, delivered at the string's
  // summed nominal voltage.
  double min_charge_c = CellConstView{modules_.front().batch(), 0}.charge_coulomb();
  double voltage_sum = 0.0;
  for (const auto& m : modules_) {
    for (std::size_t i = 0; i < m.cell_count(); ++i) {
      const CellConstView cell{m.batch(), i};
      min_charge_c = std::min(min_charge_c, cell.charge_coulomb());
      voltage_sum += cell.open_circuit_voltage();
    }
  }
  return min_charge_c * voltage_sum / 3600.0;
}

double Pack::total_bleed_energy_j() const noexcept {
  double e = 0.0;
  for (const auto& m : modules_) e += m.bleed_energy_j();
  return e;
}

double Pack::total_transfer_loss_j() const noexcept {
  double e = module_transfer_loss_j_;
  for (const auto& m : modules_) e += m.transfer_loss_j();
  return e;
}

}  // namespace ev::battery

#include "ev/battery/module.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ev::battery {

SeriesModule::SeriesModule(const std::vector<CellInit>& cells, OcvCurve curve,
                           BalancingHardware hw)
    : batch_(cells, std::move(curve)), hw_(hw) {
  bleed_on_.assign(batch_.size(), 0);
  scratch_current_.resize(batch_.size());
  scratch_heat_.resize(batch_.size());
}

void SeriesModule::check_index(std::size_t i) const {
  if (i >= batch_.size()) throw std::out_of_range("SeriesModule: cell index out of range");
}

bool SeriesModule::bleed_engaged(std::size_t i) const { return bleed_on_.at(i) != 0; }

void SeriesModule::clear_bleed() noexcept { std::fill(bleed_on_.begin(), bleed_on_.end(), 0); }

void SeriesModule::command_transfer(std::size_t from, std::size_t to) {
  if (from >= batch_.size() || to >= batch_.size())
    throw std::out_of_range("SeriesModule::command_transfer: cell index out of range");
  if (from == to)
    throw std::invalid_argument("SeriesModule::command_transfer: from == to");
  transfer_from_ = from;
  transfer_to_ = to;
  transfer_active_ = true;
}

void SeriesModule::clear_transfer() noexcept { transfer_active_ = false; }

ModuleStatus SeriesModule::step(double current_a, double dt_s, double ambient_c) {
  // Active transfer: remove dq from the source, deliver eta*dq to the sink.
  double transfer_out_c = 0.0;
  double transfer_in_c = 0.0;
  if (transfer_active_) {
    transfer_out_c = hw_.transfer_current_a * dt_s;
    transfer_in_c = transfer_out_c * hw_.transfer_efficiency;
    // Source must actually hold the charge; clamp at empty.
    const CellConstView source{batch_, transfer_from_};
    transfer_out_c = std::min(transfer_out_c, source.charge_coulomb());
    transfer_in_c = transfer_out_c * hw_.transfer_efficiency;
    transfer_loss_j_ += (transfer_out_c - transfer_in_c) * source.open_circuit_voltage();
  }

  // Stage per-cell currents and bleed heat from pre-step state, then advance
  // the whole batch in one loop. Cell i's bleed depends only on cell i's own
  // pre-step state, so splitting the original interleaved loop into these two
  // phases is bit-identical.
  const std::size_t n = batch_.size();
  for (std::size_t i = 0; i < n; ++i) {
    double cell_current = current_a;
    double extra_heat_w = 0.0;
    if (bleed_on_[i]) {
      const double v = CellConstView{batch_, i}.terminal_voltage(current_a);
      const double i_bleed = std::max(v, 0.0) / hw_.bleed_resistor_ohm;
      cell_current += i_bleed;  // bleed adds discharge on this cell only
      const double p_bleed = i_bleed * i_bleed * hw_.bleed_resistor_ohm;
      extra_heat_w = p_bleed;  // resistor heat sinks into the cell vicinity
      bleed_energy_j_ += p_bleed * dt_s;
    }
    scratch_current_[i] = cell_current;
    scratch_heat_[i] = extra_heat_w;
  }
  const BatchStatus batch_status =
      batch_.step_all(scratch_current_, scratch_heat_, dt_s, ambient_c);
  ModuleStatus status;
  status.worst = batch_status.worst;
  status.alarm_count = batch_status.alarm_count;

  if (transfer_active_ && transfer_out_c > 0.0) {
    batch_.inject_charge(transfer_from_, -transfer_out_c);
    batch_.inject_charge(transfer_to_, transfer_in_c);
  }
  return status;
}

void SeriesModule::inject_charge_all(double coulombs) noexcept {
  for (std::size_t i = 0; i < batch_.size(); ++i) batch_.inject_charge(i, coulombs);
}

double SeriesModule::terminal_voltage(double current_a) const noexcept {
  double v = 0.0;
  for (std::size_t i = 0; i < batch_.size(); ++i)
    v += CellConstView{batch_, i}.terminal_voltage(current_a);
  return v;
}

double SeriesModule::min_soc() const noexcept {
  double m = CellConstView{batch_, 0}.soc();
  for (std::size_t i = 0; i < batch_.size(); ++i)
    m = std::min(m, CellConstView{batch_, i}.soc());
  return m;
}

double SeriesModule::max_soc() const noexcept {
  double m = CellConstView{batch_, 0}.soc();
  for (std::size_t i = 0; i < batch_.size(); ++i)
    m = std::max(m, CellConstView{batch_, i}.soc());
  return m;
}

}  // namespace ev::battery

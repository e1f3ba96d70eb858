#include "ev/battery/cell_batch.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "ev/util/math.h"

namespace ev::battery {

CellBatch::CellBatch(const std::vector<CellInit>& cells, OcvCurve curve)
    : curve_(std::move(curve)) {
  if (cells.empty()) throw std::invalid_argument("CellBatch: need at least one cell");
  const std::size_t n = cells.size();
  soc_.reserve(n);
  capacity_ah_.reserve(n);
  temp_c_.reserve(n);
  params_.reserve(n);
  for (const CellInit& c : cells) {
    soc_.push_back(util::clamp(c.soc, 0.0, 1.0));
    capacity_ah_.push_back(c.params.capacity_ah);
    temp_c_.push_back(c.temp_c);
    params_.push_back(c.params);
  }
  v_rc1_.assign(n, 0.0);
  v_rc2_.assign(n, 0.0);
  throughput_ah_.assign(n, 0.0);
  dissipated_j_.assign(n, 0.0);
  a1_.resize(n);
  k1_.resize(n);
  a2_.resize(n);
  k2_.resize(n);
}

void CellBatch::refresh_coefficients(double dt_s) {
  // a = exp(-dt/tau) and k = r*(1-a) are the exact first-order update
  // factors; dt is constant within a scenario, so this runs once.
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const CellParameters& p = params_[i];
    const double tau1 = p.r1_ohm * p.c1_farad;
    const double tau2 = p.r2_ohm * p.c2_farad;
    a1_[i] = std::exp(-dt_s / tau1);
    a2_[i] = std::exp(-dt_s / tau2);
    k1_[i] = p.r1_ohm * (1.0 - a1_[i]);
    k2_[i] = p.r2_ohm * (1.0 - a2_[i]);
  }
  cached_dt_s_ = dt_s;
}

BatchStatus CellBatch::step_all(std::span<const double> current_a,
                                std::span<const double> extra_heat_w, double dt_s,
                                double ambient_c) {
  if (dt_s != cached_dt_s_) refresh_coefficients(dt_s);
  BatchStatus status;
  const std::size_t n = soc_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const CellParameters& p = params_[i];
    const double amps = current_a[i];

    // --- Coulomb dynamics ----------------------------------------------------
    const double dq = amps * dt_s;  // coulombs removed (positive = discharge)
    const double cap_c = capacity_ah_[i] * 3600.0;
    soc_[i] = util::clamp(soc_[i] - dq / cap_c, 0.0, 1.0);
    throughput_ah_[i] += std::fabs(dq) / 3600.0;

    // --- Polarization branches (exact first-order update, cached factors) --
    v_rc1_[i] = a1_[i] * v_rc1_[i] + k1_[i] * amps;
    v_rc2_[i] = a2_[i] * v_rc2_[i] + k2_[i] * amps;

    // --- Losses and thermal node -------------------------------------------
    const double p_ohmic = amps * amps * p.r0_ohm;
    const double p_polar =
        v_rc1_[i] * v_rc1_[i] / p.r1_ohm + v_rc2_[i] * v_rc2_[i] / p.r2_ohm;
    const double p_loss = p_ohmic + p_polar;
    dissipated_j_[i] += p_loss * dt_s;
    const double p_cooling = (temp_c_[i] - ambient_c) / p.thermal_resistance_k_per_w;
    temp_c_[i] += (p_loss + extra_heat_w[i] - p_cooling) / p.thermal_capacity_j_per_k * dt_s;

    // --- Ageing: throughput fade, amplified at voltage/temperature extremes --
    double stress = 1.0;
    if (soc_[i] > 0.9) stress += 2.0 * (soc_[i] - 0.9) * 10.0;    // high-voltage stress
    if (soc_[i] < 0.1) stress += 2.0 * (0.1 - soc_[i]) * 10.0;    // deep-discharge stress
    if (temp_c_[i] > 40.0) stress += (temp_c_[i] - 40.0) / 10.0;  // Arrhenius-like
    capacity_ah_[i] -=
        p.capacity_ah * p.fade_per_ah_throughput * (std::fabs(dq) / 3600.0) * stress;
    capacity_ah_[i] = std::max(capacity_ah_[i], 0.5 * p.capacity_ah);

    // --- Safety envelope ----------------------------------------------------
    const double v_term = CellConstView{*this, i}.terminal_voltage(amps);
    const bool overvoltage = v_term > p.max_voltage;
    const bool undervoltage = v_term < p.min_voltage;
    const bool overtemperature = temp_c_[i] > p.max_temperature_c;
    const bool thermal_runaway = temp_c_[i] > p.runaway_temperature_c;
    const bool overcurrent =
        amps > p.max_discharge_current_a || -amps > p.max_charge_current_a;
    if (overvoltage || undervoltage || overtemperature || overcurrent || thermal_runaway)
      ++status.alarm_count;
    status.worst.overvoltage |= overvoltage;
    status.worst.undervoltage |= undervoltage;
    status.worst.overtemperature |= overtemperature;
    status.worst.overcurrent |= overcurrent;
    status.worst.thermal_runaway |= thermal_runaway;
  }
  return status;
}

void CellBatch::inject_charge(std::size_t i, double coulombs) noexcept {
  const double cap_c = capacity_ah_[i] * 3600.0;
  soc_[i] = util::clamp(soc_[i] + coulombs / cap_c, 0.0, 1.0);
}

}  // namespace ev::battery

#include "ev/powertrain/simulation.h"

#include <algorithm>
#include <cmath>

#include "ev/util/math.h"
#include "ev/util/units.h"

namespace ev::powertrain {

PowertrainSimulation::PowertrainSimulation(PowertrainConfig config)
    : config_(config),
      rng_(config.seed),
      vehicle_(config.vehicle),
      motor_(config.motor),
      blender_(config.regen),
      aux_dcdc_(config.aux_dcdc) {
  pack_ = std::make_unique<battery::Pack>(config_.pack, rng_);
  config_.bms.initial_soc_estimate = config_.pack.initial_soc;
  bms_ = std::make_unique<bms::BatteryManager>(*pack_, config_.bms);
}

void PowertrainSimulation::set_drive_limits(double torque_fraction, double speed_limit_mps) {
  torque_limit_fraction_ = std::clamp(torque_fraction, 0.0, 1.0);
  speed_limit_mps_ = std::max(speed_limit_mps, 0.0);
}

PowertrainSnapshot PowertrainSimulation::step(double target_speed_mps) {
  const double dt = config_.dt_s;
  target_speed_mps = std::min(target_speed_mps, speed_limit_mps_);
  const bms::BmsReport& report = bms_->report();

  // --- Driver -> pedals ----------------------------------------------------
  const PedalState pedals = driver_.update(target_speed_mps, vehicle_.speed_mps(), dt);

  // --- Pedal -> wheel force demand ------------------------------------------
  const double motor_speed = vehicle_.motor_speed_rad_s();
  double drive_torque = 0.0;
  double friction_force = 0.0;
  double regen_torque = 0.0;

  if (pedals.accelerator > 0.0) {
    double torque_demand = pedals.accelerator * torque_limit_fraction_ *
                           motor_.clamp_torque(motor_.config().max_torque_nm, motor_speed);
    // Battery discharge power limit (from the BMS) caps the torque.
    const double limit_w = report.discharge_power_limit_w > 0.0
                               ? report.discharge_power_limit_w
                               : pack_->open_circuit_voltage() * 400.0;  // first step default
    if (motor_speed > 1.0) {
      const double max_torque_by_power = limit_w / motor_speed;
      torque_demand = std::min(torque_demand, max_torque_by_power);
    }
    drive_torque = motor_.clamp_torque(torque_demand, motor_speed);
  } else if (pedals.brake > 0.0) {
    const BrakeSplit split =
        blender_.split(pedals.brake, vehicle_.speed_mps(), report.charge_power_limit_w);
    friction_force = split.friction_force_n;
    regen_torque = -motor_.clamp_torque(vehicle_.motor_torque_nm(split.regen_force_n),
                                        motor_speed);
  }

  const double motor_torque = drive_torque + regen_torque;  // regen_torque <= 0

  // --- Electrical power balance ---------------------------------------------
  const double traction_power_w = motor_.electrical_power_w(motor_torque, motor_speed);
  const double aux_input_w = aux_dcdc_.transfer(config_.aux_power_w, dt);
  const double battery_power_w = traction_power_w + aux_input_w;

  const double pack_v = std::max(pack_->terminal_voltage(0.0), 1.0);
  const double battery_current_a = battery_power_w / pack_v;
  pack_->step(battery_current_a, dt, config_.ambient_c);
  (void)bms_->step(*pack_, dt, rng_);

  // --- Vehicle motion ---------------------------------------------------------
  const double wheel_force = vehicle_.wheel_force_n(motor_torque) - friction_force;
  const double speed_before = vehicle_.speed_mps();
  vehicle_.step(wheel_force, dt);

  // --- Accounting --------------------------------------------------------------
  const double battery_energy_wh = util::j_to_wh(battery_power_w * dt);
  if (battery_power_w >= 0.0) {
    ledger_.battery_energy_out_wh += battery_energy_wh;
  } else {
    ledger_.battery_energy_in_wh += -battery_energy_wh;
    ledger_.regen_recovered_wh += -battery_energy_wh;
  }
  ledger_.friction_brake_loss_wh += util::j_to_wh(friction_force * speed_before * dt);
  ledger_.motor_loss_wh += util::j_to_wh(motor_.loss_w(motor_torque, motor_speed) * dt);
  ledger_.aux_energy_wh += util::j_to_wh(aux_input_w * dt);
  speed_error_accum_ += std::fabs(target_speed_mps - vehicle_.speed_mps());
  ++steps_;
  time_s_ += dt;

  range_.update(battery_energy_wh, vehicle_.speed_mps() * dt);

  PowertrainSnapshot snap;
  snap.time_s = time_s_;
  snap.speed_mps = vehicle_.speed_mps();
  snap.target_mps = target_speed_mps;
  snap.motor_torque_nm = motor_torque;
  snap.battery_power_w = battery_power_w;
  snap.pack_voltage_v = pack_v;
  snap.pack_soc = bms_->report().pack_soc;
  snap.remaining_range_km = range_.remaining_range_km(pack_->usable_energy_wh());
  return snap;
}

CycleResult PowertrainSimulation::run_cycle(const DriveCycle& cycle) {
  const CycleResult before = ledger_;
  const double dist_before = vehicle_.distance_m();
  const double t_start = time_s_;
  driver_.reset();

  while (time_s_ - t_start < cycle.duration_s()) {
    (void)step(cycle.speed_at(time_s_ - t_start));
    if (bms_->safety().tripped()) {
      ledger_.safety_tripped = true;
      break;
    }
    if (pack_->min_soc() <= 0.01) {
      ledger_.battery_depleted = true;
      break;
    }
  }

  CycleResult result = ledger_;
  result.battery_energy_out_wh -= before.battery_energy_out_wh;
  result.battery_energy_in_wh -= before.battery_energy_in_wh;
  result.regen_recovered_wh -= before.regen_recovered_wh;
  result.friction_brake_loss_wh -= before.friction_brake_loss_wh;
  result.motor_loss_wh -= before.motor_loss_wh;
  result.aux_energy_wh -= before.aux_energy_wh;
  result.distance_km = (vehicle_.distance_m() - dist_before) / 1000.0;
  result.duration_s = time_s_ - t_start;
  result.final_soc = pack_->mean_soc();
  result.mean_abs_speed_error_mps =
      steps_ > 0 ? speed_error_accum_ / static_cast<double>(steps_) : 0.0;
  const double net_wh = result.battery_energy_out_wh - result.battery_energy_in_wh;
  result.consumption_wh_km = result.distance_km > 0.01 ? net_wh / result.distance_km : 0.0;
  return result;
}

double PowertrainSimulation::measure_range_km(const DriveCycle& cycle, double soc_floor) {
  // Safety bound: stop after enough repetitions to drain any realistic pack.
  for (int rep = 0; rep < 400; ++rep) {
    const CycleResult r = run_cycle(cycle);
    if (r.safety_tripped || r.battery_depleted) break;
    if (pack_->min_soc() <= soc_floor) break;
  }
  return vehicle_.distance_m() / 1000.0;
}

}  // namespace ev::powertrain

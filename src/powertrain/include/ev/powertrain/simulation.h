/// \file simulation.h
/// Whole-powertrain energy simulation (the executable version of Fig. 4):
/// battery pack + BMS + quasi-static motor/inverter + DC-DC auxiliary rail +
/// brake-by-wire blending + vehicle dynamics + driver, stepped on a common
/// fixed period. This is the plant the energy-flow control claims of the
/// paper are measured against (experiments E2 and E4).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "ev/battery/pack.h"
#include "ev/bms/battery_manager.h"
#include "ev/powertrain/dcdc.h"
#include "ev/powertrain/drive_cycle.h"
#include "ev/powertrain/driver.h"
#include "ev/powertrain/motor_map.h"
#include "ev/powertrain/range.h"
#include "ev/powertrain/regen.h"
#include "ev/powertrain/vehicle.h"
#include "ev/util/rng.h"

namespace ev::powertrain {

/// Full-vehicle configuration.
struct PowertrainConfig {
  VehicleParameters vehicle;
  MotorMapConfig motor;
  RegenConfig regen;
  battery::PackConfig pack;
  bms::BmsConfig bms;
  DcDcParameters aux_dcdc;      ///< HV -> 12 V converter.
  double aux_power_w = 450.0;   ///< Constant 12 V auxiliary load.
  double dt_s = 0.1;            ///< Simulation period.
  double ambient_c = 25.0;      ///< Ambient temperature.
  std::uint64_t seed = 1;       ///< Reproducibility seed.
};

/// Energy ledger and outcome of a simulation run.
struct CycleResult {
  double distance_km = 0.0;
  double duration_s = 0.0;
  double battery_energy_out_wh = 0.0;   ///< Gross energy drawn (discharge).
  double battery_energy_in_wh = 0.0;    ///< Energy returned by regeneration.
  double regen_recovered_wh = 0.0;      ///< Same as energy_in minus charging losses.
  double friction_brake_loss_wh = 0.0;  ///< Energy burnt in friction brakes.
  double motor_loss_wh = 0.0;           ///< Machine + inverter losses.
  double aux_energy_wh = 0.0;           ///< 12 V rail consumption incl. DC-DC losses.
  double consumption_wh_km = 0.0;       ///< Net consumption over the run.
  double mean_abs_speed_error_mps = 0.0;  ///< Cycle-tracking quality.
  double final_soc = 0.0;               ///< Mean true SoC at the end.
  bool battery_depleted = false;        ///< Run ended on an empty/derated pack.
  bool safety_tripped = false;          ///< BMS opened the contactor.
};

/// Instantaneous operating point published each step (information-system &
/// co-simulation tap).
struct PowertrainSnapshot {
  double time_s = 0.0;
  double speed_mps = 0.0;
  double target_mps = 0.0;
  double motor_torque_nm = 0.0;
  double battery_power_w = 0.0;  ///< Positive = discharging.
  double pack_voltage_v = 0.0;
  double pack_soc = 0.0;         ///< BMS-estimated.
  double remaining_range_km = 0.0;
};

/// The integrated powertrain plant.
class PowertrainSimulation {
 public:
  explicit PowertrainSimulation(PowertrainConfig config = {});

  /// Advances one period toward \p target_speed_mps; returns the snapshot.
  PowertrainSnapshot step(double target_speed_mps);

  /// Constrains the plant per a degradation mode: motor torque is clamped to
  /// \p torque_fraction of the map's maximum and the driver's target speed
  /// is capped at \p speed_limit_mps. Both apply until changed or cleared;
  /// the DegradationManager's outputs plug in here.
  void set_drive_limits(double torque_fraction, double speed_limit_mps);
  /// Torque limit currently in force (1.0 when unconstrained).
  [[nodiscard]] double torque_limit_fraction() const noexcept {
    return torque_limit_fraction_;
  }
  /// Speed limit currently in force [m/s] (infinity when unconstrained).
  [[nodiscard]] double speed_limit_mps() const noexcept { return speed_limit_mps_; }

  /// Runs \p cycle to completion (or battery depletion); returns the ledger.
  CycleResult run_cycle(const DriveCycle& cycle);

  /// Drives repetitions of \p cycle until the pack empties or the BMS trips;
  /// returns the achieved driving range [km]. \p soc_floor ends the run when
  /// the weakest cell reaches it.
  double measure_range_km(const DriveCycle& cycle, double soc_floor = 0.03);

  /// Access to the battery pack (inspection).
  [[nodiscard]] const battery::Pack& pack() const noexcept { return *pack_; }
  /// Access to the BMS.
  [[nodiscard]] const bms::BatteryManager& bms() const noexcept { return *bms_; }
  /// Mutable BMS access for fault injection (sensor stuck-at/drift/dropout
  /// reach the module managers through here).
  [[nodiscard]] bms::BatteryManager& bms() noexcept { return *bms_; }
  /// Access to the vehicle state.
  [[nodiscard]] const VehicleDynamics& vehicle() const noexcept { return vehicle_; }
  /// Access to the range estimator (information-system feed).
  [[nodiscard]] const RangeEstimator& range_estimator() const noexcept { return range_; }
  /// Elapsed time [s].
  [[nodiscard]] double time_s() const noexcept { return time_s_; }
  /// Running energy ledger for the whole lifetime of the simulation.
  [[nodiscard]] const CycleResult& ledger() const noexcept { return ledger_; }
  /// Configuration.
  [[nodiscard]] const PowertrainConfig& config() const noexcept { return config_; }

 private:
  PowertrainConfig config_;
  util::Rng rng_;
  std::unique_ptr<battery::Pack> pack_;
  std::unique_ptr<bms::BatteryManager> bms_;
  VehicleDynamics vehicle_;
  MotorMap motor_;
  BrakeBlender blender_;
  DriverModel driver_;
  DcDcConverter aux_dcdc_;
  RangeEstimator range_;
  double time_s_ = 0.0;
  double torque_limit_fraction_ = 1.0;
  double speed_limit_mps_ = std::numeric_limits<double>::infinity();
  CycleResult ledger_;
  double speed_error_accum_ = 0.0;
  std::size_t steps_ = 0;
};

}  // namespace ev::powertrain

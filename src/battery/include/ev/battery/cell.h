/// \file cell.h
/// Parameters and safety flags of the electro-thermal Li-Ion cell model:
/// second-order Thevenin equivalent circuit (series resistance plus two RC
/// polarization branches) around a piecewise-linear OCV(SoC) source, a
/// lumped thermal node, and a simple stress-weighted capacity-fade (ageing)
/// model. CellBatch::step_all (cell_batch.h) integrates it.
///
/// Sign convention throughout the battery and powertrain modules:
/// **positive current discharges** the cell (current flows out of the
/// positive terminal into the load); negative current charges it.
#pragma once

namespace ev::battery {

/// Electrical, thermal, and safety parameters of one cell.
struct CellParameters {
  double capacity_ah = 40.0;      ///< Nominal capacity at beginning of life [Ah].
  double r0_ohm = 0.0015;         ///< Ohmic series resistance [Ohm].
  double r1_ohm = 0.0008;         ///< First polarization resistance [Ohm].
  double c1_farad = 20000.0;      ///< First polarization capacitance [F] (~16 s).
  double r2_ohm = 0.0005;         ///< Second polarization resistance [Ohm].
  double c2_farad = 120000.0;     ///< Second polarization capacitance [F] (~60 s).
  double thermal_capacity_j_per_k = 900.0;   ///< Lumped heat capacity [J/K].
  double thermal_resistance_k_per_w = 4.0;   ///< Node-to-ambient resistance [K/W].
  double min_voltage = 3.0;       ///< Undervoltage safety limit [V].
  double max_voltage = 4.2;       ///< Overvoltage safety limit [V].
  double max_temperature_c = 60.0;    ///< Overtemperature safety limit [degC].
  double runaway_temperature_c = 80.0;  ///< Thermal-runaway onset [degC].
  double max_discharge_current_a = 400.0;  ///< Discharge current limit [A].
  double max_charge_current_a = 120.0;     ///< Charge current limit [A].
  /// Capacity fade per ampere-hour of charge throughput at moderate stress,
  /// as a fraction of nominal capacity. Default ~20% fade after 3000
  /// equivalent full cycles of an 40 Ah cell.
  double fade_per_ah_throughput = 20e-3 / (3000.0 * 2 * 40.0) * 10.0;
};

/// Instantaneous cell condition flags raised by CellBatch::step_all(); the
/// BMS safety monitor consumes these.
struct CellStatus {
  bool overvoltage = false;
  bool undervoltage = false;
  bool overtemperature = false;
  bool overcurrent = false;
  bool thermal_runaway = false;
};

}  // namespace ev::battery

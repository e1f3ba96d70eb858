#include "ev/core/architecture.h"

#include <stdexcept>

namespace ev::core {

std::string to_string(Domain domain) {
  switch (domain) {
    case Domain::kChassis: return "chassis";
    case Domain::kSafety: return "safety";
    case Domain::kComfort: return "comfort";
    case Domain::kInfotainment: return "infotainment";
    case Domain::kBody: return "body";
  }
  return "?";
}

std::string to_string(BusTech tech) {
  switch (tech) {
    case BusTech::kCan: return "CAN";
    case BusTech::kLin: return "LIN";
    case BusTech::kFlexRay: return "FlexRay";
    case BusTech::kMost: return "MOST";
    case BusTech::kEthernet: return "Ethernet";
  }
  return "?";
}

double bit_rate_of(BusTech tech) noexcept {
  switch (tech) {
    case BusTech::kCan: return 500e3;
    case BusTech::kLin: return 19.2e3;
    case BusTech::kFlexRay: return 10e6;
    case BusTech::kMost: return 25e6;
    case BusTech::kEthernet: return 100e6;
  }
  return 0.0;
}

double controller_cost_of(BusTech tech) noexcept {
  // Relative scale (CAN transceiver = 1).
  switch (tech) {
    case BusTech::kCan: return 1.0;
    case BusTech::kLin: return 0.4;
    case BusTech::kFlexRay: return 2.5;
    case BusTech::kMost: return 3.0;
    case BusTech::kEthernet: return 2.0;
  }
  return 0.0;
}

std::size_t Architecture::ecu_of(std::size_t f) const {
  for (std::size_t e = 0; e < ecus.size(); ++e)
    for (std::size_t hosted : ecus[e].hosted_functions)
      if (hosted == f) return e;
  throw std::out_of_range("Architecture::ecu_of: function not mapped");
}

bool Architecture::signal_is_local(const SignalSpec& s) const {
  return ecu_of(s.from) == ecu_of(s.to);
}

FunctionNetwork reference_function_network(std::size_t scale) {
  FunctionNetwork net;
  auto fn = [&](const char* name, Domain d, Criticality c, std::int64_t period_us,
                std::int64_t wcet_us) {
    net.functions.push_back(FunctionSpec{name, d, c, period_us, wcet_us});
    return net.functions.size() - 1;
  };
  auto sig = [&](const char* name, std::size_t from, std::size_t to, std::size_t bytes,
                 std::int64_t period_us) {
    net.signals.push_back(SignalSpec{name, from, to, bytes, period_us});
  };

  // --- Chassis / powertrain (hard real-time) --------------------------------
  const auto brake_pedal = fn("brake-pedal-acq", Domain::kChassis, Criticality::kAsilD, 5000, 300);
  const auto brake_ctrl = fn("brake-by-wire-ctrl", Domain::kChassis, Criticality::kAsilD, 5000, 800);
  const auto steer = fn("steer-by-wire-ctrl", Domain::kChassis, Criticality::kAsilD, 5000, 700);
  const auto torque = fn("torque-coordinator", Domain::kChassis, Criticality::kAsilD, 10000, 900);
  const auto motor_ctl = fn("motor-foc", Domain::kChassis, Criticality::kAsilD, 10000, 600);
  const auto regen = fn("regen-blending", Domain::kChassis, Criticality::kAsilD, 10000, 500);
  const auto wheel_spd = fn("wheel-speed-acq", Domain::kChassis, Criticality::kAsilB, 10000, 200);
  const auto susp = fn("suspension-ctrl", Domain::kChassis, Criticality::kAsilB, 20000, 600);
  // --- Safety ---------------------------------------------------------------
  const auto abs_f = fn("abs-esp", Domain::kSafety, Criticality::kAsilD, 10000, 900);
  const auto airbag = fn("airbag-ctrl", Domain::kSafety, Criticality::kAsilD, 10000, 300);
  const auto pedestrian = fn("pedestrian-warning", Domain::kSafety, Criticality::kAsilB, 50000, 4000);
  const auto crash = fn("crash-detection", Domain::kSafety, Criticality::kAsilD, 10000, 250);
  // --- Energy (BMS / charging) -----------------------------------------------
  const auto bms_f = fn("battery-manager", Domain::kChassis, Criticality::kAsilD, 100000, 1500);
  const auto balancer = fn("cell-balancer", Domain::kChassis, Criticality::kAsilB, 100000, 700);
  const auto charger = fn("charge-controller", Domain::kChassis, Criticality::kAsilB, 100000, 800);
  const auto range_f = fn("range-estimator", Domain::kInfotainment, Criticality::kQm, 200000, 1200);
  // --- Comfort / body ----------------------------------------------------------
  const auto climate = fn("climate-ctrl", Domain::kComfort, Criticality::kQm, 100000, 1000);
  const auto door = fn("door-module", Domain::kComfort, Criticality::kQm, 50000, 300);
  fn("seat-module", Domain::kComfort, Criticality::kQm, 200000, 300);
  const auto light = fn("light-ctrl", Domain::kBody, Criticality::kQm, 100000, 250);
  const auto wiper = fn("wiper-ctrl", Domain::kBody, Criticality::kQm, 50000, 250);
  const auto window = fn("window-lift", Domain::kBody, Criticality::kQm, 50000, 200);
  // --- Infotainment --------------------------------------------------------------
  const auto hmi = fn("hmi-main", Domain::kInfotainment, Criticality::kQm, 50000, 5000);
  const auto audio = fn("audio-dsp", Domain::kInfotainment, Criticality::kQm, 20000, 2000);
  const auto nav = fn("navigation", Domain::kInfotainment, Criticality::kQm, 200000, 8000);
  const auto telem = fn("telematics-v2x", Domain::kInfotainment, Criticality::kQm, 100000, 3000);

  // --- Signals -------------------------------------------------------------
  sig("pedal->brake", brake_pedal, brake_ctrl, 8, 5000);
  sig("brake->torque", brake_ctrl, torque, 8, 10000);
  sig("brake->regen", brake_ctrl, regen, 8, 10000);
  sig("regen->torque", regen, torque, 8, 10000);
  sig("torque->motor", torque, motor_ctl, 8, 10000);
  sig("wheel->abs", wheel_spd, abs_f, 8, 10000);
  sig("wheel->brake", wheel_spd, brake_ctrl, 8, 10000);
  sig("wheel->susp", wheel_spd, susp, 8, 20000);
  sig("abs->torque", abs_f, torque, 8, 10000);
  sig("crash->airbag", crash, airbag, 4, 10000);
  sig("crash->bms", crash, bms_f, 4, 10000);
  sig("bms->torque", bms_f, torque, 8, 100000);
  sig("bms->range", bms_f, range_f, 16, 200000);
  sig("bms->balancer", bms_f, balancer, 8, 100000);
  sig("charger->bms", charger, bms_f, 8, 100000);
  sig("range->hmi", range_f, hmi, 16, 200000);
  sig("nav->range", nav, range_f, 32, 200000);
  sig("pedestrian->hmi", pedestrian, hmi, 8, 50000);
  sig("wheel->hmi", wheel_spd, hmi, 8, 50000);
  sig("climate->hmi", climate, hmi, 8, 100000);
  sig("steer->susp", steer, susp, 8, 20000);
  sig("telem->nav", telem, nav, 64, 200000);
  sig("audio<-hmi", hmi, audio, 16, 50000);
  sig("door->light", door, light, 2, 100000);
  sig("wiper<-body", wiper, light, 2, 100000);
  sig("window<-door", door, window, 2, 50000);

  // --- Optional growth for sweeps -------------------------------------------
  for (std::size_t k = 1; k < scale; ++k) {
    const std::string suffix = "#" + std::to_string(k);
    const auto extra1 = fn(("body-node" + suffix).c_str(), Domain::kBody, Criticality::kQm,
                           100000, 300);
    const auto extra2 = fn(("comfort-node" + suffix).c_str(), Domain::kComfort,
                           Criticality::kQm, 100000, 500);
    sig(("body-sig" + suffix).c_str(), extra1, light, 2, 100000);
    sig(("comfort-sig" + suffix).c_str(), extra2, climate, 4, 100000);
  }
  return net;
}

}  // namespace ev::core

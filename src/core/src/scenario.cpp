#include "ev/core/scenario.h"

#include <ostream>
#include <sstream>

#include "ev/core/subsystems.h"
#include "ev/util/json.h"

namespace ev::core {
namespace {

bms::BalancingKind to_balancing(config::Balancing balancing) {
  switch (balancing) {
    case config::Balancing::kNone: return bms::BalancingKind::kNone;
    case config::Balancing::kPassive: return bms::BalancingKind::kPassive;
    case config::Balancing::kActive: return bms::BalancingKind::kActive;
  }
  return bms::BalancingKind::kPassive;
}

void json_value(std::ostream& out, double value) {
  out << config::format_double(value);
}

}  // namespace

VehicleSystemConfig to_vehicle_config(const config::ScenarioSpec& spec) {
  spec.validate();
  VehicleSystemConfig cfg;
  cfg.powertrain.pack.module_count = static_cast<std::size_t>(spec.pack.module_count);
  cfg.powertrain.pack.cells_per_module =
      static_cast<std::size_t>(spec.pack.cells_per_module);
  cfg.powertrain.pack.initial_soc = spec.pack.initial_soc;
  cfg.powertrain.pack.soc_spread_sigma = spec.pack.soc_spread_sigma;
  cfg.powertrain.pack.use_lfp_chemistry = spec.pack.lfp_chemistry;
  cfg.powertrain.bms.balancing = to_balancing(spec.bms.balancing);
  cfg.powertrain.bms.initial_soc_estimate = spec.bms.initial_soc_estimate;
  cfg.powertrain.seed = spec.powertrain.seed;
  cfg.powertrain.aux_power_w = spec.powertrain.aux_power_w;
  cfg.network.load_scale = spec.network.load_scale;
  cfg.network.can_bit_rate = spec.network.can_bit_rate;
  cfg.network.lin_bit_rate = spec.network.lin_bit_rate;
  cfg.network.flexray_bit_rate = spec.network.flexray_bit_rate;
  for (const config::FrameBusSpec& e : spec.arch.frame_buses)
    cfg.network.arch.frame_buses.push_back({e.frame_id, config::arch_bus_index(e.bus)});
  for (const config::FrameIdSpec& e : spec.arch.frame_ids)
    cfg.network.arch.frame_ids.push_back({e.frame_id, e.new_id});
  for (const config::FrSlotSpec& e : spec.arch.fr_slots)
    cfg.network.arch.fr_slots.push_back({e.frame_id, static_cast<std::size_t>(e.slot)});
  for (const config::PartitionWindowSpec& e : spec.arch.partitions)
    cfg.partition_windows.push_back({e.partition, e.budget_us});
  cfg.control_period_s = spec.timing.control_period_s;
  cfg.bms_publish_period_s = spec.timing.bms_publish_period_s;
  cfg.middleware_frame_us = spec.timing.middleware_frame_us;
  return cfg;
}

powertrain::DriveCycle to_drive_cycle(const config::ScenarioSpec& spec) {
  powertrain::DriveCycle base = [&] {
    switch (spec.drive.cycle) {
      case config::CycleKind::kHighway: return powertrain::DriveCycle::highway();
      case config::CycleKind::kSuburban: return powertrain::DriveCycle::suburban();
      case config::CycleKind::kUrban: break;
    }
    return powertrain::DriveCycle::urban();
  }();
  if (spec.drive.repeat <= 1) return base;
  return powertrain::DriveCycle::repeat(base, static_cast<int>(spec.drive.repeat));
}

std::unique_ptr<VehicleSystem> build_vehicle(const config::ScenarioSpec& spec) {
  auto vehicle = std::make_unique<VehicleSystem>(to_vehicle_config(spec));
  // Attachment order matters: obs first so everyone else can find the
  // registry, faults before health so the watchdog can feed the mode machine.
  if (spec.subsystems.obs)
    vehicle->attach(std::make_unique<ObservabilitySubsystem>());
  if (spec.subsystems.security)
    vehicle->attach(std::make_unique<SecuritySubsystem>());
  if (spec.subsystems.faults) {
    FaultsSubsystem::Options options;
    options.seed = spec.fault_seed;
    options.events = spec.faults;
    vehicle->attach(std::make_unique<FaultsSubsystem>(std::move(options)));
  }
  if (spec.subsystems.health) vehicle->attach(std::make_unique<HealthSubsystem>());
  return vehicle;
}

ScenarioRunResult run_scenario(const config::ScenarioSpec& spec,
                               std::unique_ptr<VehicleSystem>* vehicle_out) {
  std::unique_ptr<VehicleSystem> vehicle = build_vehicle(spec);
  ScenarioRunResult result;
  result.scenario = spec.name;
  result.cosim = vehicle->run(to_drive_cycle(spec));
  if (vehicle_out != nullptr) *vehicle_out = std::move(vehicle);
  return result;
}

void write_result_json(const ScenarioRunResult& result, std::ostream& out) {
  const CoSimResult& r = result.cosim;
  const powertrain::CycleResult& c = r.cycle;
  out << "{\"scenario\":\"" << util::json_escape(result.scenario) << "\",";
  out << "\"drive\":{";
  out << "\"distance_km\":";
  json_value(out, c.distance_km);
  out << ",\"duration_s\":";
  json_value(out, c.duration_s);
  out << ",\"battery_energy_out_wh\":";
  json_value(out, c.battery_energy_out_wh);
  out << ",\"battery_energy_in_wh\":";
  json_value(out, c.battery_energy_in_wh);
  out << ",\"regen_recovered_wh\":";
  json_value(out, c.regen_recovered_wh);
  out << ",\"friction_brake_loss_wh\":";
  json_value(out, c.friction_brake_loss_wh);
  out << ",\"aux_energy_wh\":";
  json_value(out, c.aux_energy_wh);
  out << ",\"consumption_wh_km\":";
  json_value(out, c.consumption_wh_km);
  out << ",\"final_soc\":";
  json_value(out, c.final_soc);
  out << ",\"battery_depleted\":" << (c.battery_depleted ? "true" : "false");
  out << ",\"safety_tripped\":" << (c.safety_tripped ? "true" : "false");
  out << "},";
  out << "\"telemetry\":{";
  out << "\"bms_frames_published\":" << r.bms_frames_published;
  out << ",\"bms_frames_at_hmi\":" << r.bms_frames_at_hmi;
  out << ",\"bms_to_hmi_latency_ms\":";
  json_value(out, r.bms_to_hmi_latency_ms);
  out << ",\"range_service_calls\":" << r.range_service_calls;
  out << ",\"last_range_km\":";
  json_value(out, r.last_range_km);
  out << "},";
  out << "\"subsystems\":{";
  for (std::size_t i = 0; i < r.subsystems.size(); ++i) {
    const SubsystemSnapshot& snap = r.subsystems[i];
    if (i > 0) out << ",";
    out << "\"" << snap.name << "\":{";
    for (std::size_t k = 0; k < snap.values.size(); ++k) {
      if (k > 0) out << ",";
      out << "\"" << snap.values[k].first << "\":";
      json_value(out, snap.values[k].second);
    }
    out << "}";
  }
  out << "}}\n";
}

std::string result_json(const ScenarioRunResult& result) {
  std::ostringstream out;
  write_result_json(result, out);
  return out.str();
}

}  // namespace ev::core

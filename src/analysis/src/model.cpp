#include "ev/analysis/model.h"

#include <stdexcept>

#include "ev/core/cosim.h"
#include "ev/core/scenario.h"
#include "ev/core/subsystems.h"
#include "ev/network/topology.h"
#include "ev/sim/simulator.h"

namespace ev::analysis {

std::string to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::kLin: return "LIN";
    case Protocol::kCan: return "CAN";
    case Protocol::kMost: return "MOST";
    case Protocol::kFlexRay: return "FlexRay";
  }
  return "CAN";
}

VehicleModel extract_model(const config::ScenarioSpec& spec) {
  spec.validate();
  core::VehicleSystemConfig config = core::to_vehicle_config(spec);
  // Mirror the composition root: the co-simulated BMS replaces the synthetic
  // source (VehicleSystem's constructor makes the same substitution).
  config.network.synthetic_bms_source = false;

  VehicleModel model;
  model.scenario = spec.name;
  model.app = core::cockpit_app_model(config, spec.subsystems.health);
  model.health_enabled = spec.subsystems.health;
  model.security_enabled = spec.subsystems.security;
  model.cell_count = static_cast<std::size_t>(spec.pack.module_count) *
                     static_cast<std::size_t>(spec.pack.cells_per_module);
  model.faults =
      core::resolve_fault_targets(spec.faults, model.app.partitions, model.cell_count);

  // The topology builder wires buses, schedule tables, routes, and sources in
  // its constructor; without start() no event is ever scheduled — this is a
  // pure configuration readout.
  sim::Simulator sim;
  network::Figure1Network net(sim, config.network);

  const std::vector<network::Bus*> buses = net.buses();
  for (std::size_t i = 0; i < buses.size(); ++i) {
    BusModel bus;
    bus.display_name = buses[i]->name();
    bus.scenario_name = config::kArchBusNames[i];
    bus.bit_rate_bps = buses[i]->bit_rate();
    model.buses.push_back(std::move(bus));
  }

  BusModel& lin = model.buses[0];
  lin.protocol = Protocol::kLin;
  lin.lin_cycle_s = net.body_lin().cycle_time_s();
  lin.lin_slot_time_s =
      lin.lin_cycle_s / static_cast<double>(net.body_lin().schedule().size());
  for (const network::LinSlot& slot : net.body_lin().schedule())
    lin.lin_slot_ids.push_back(slot.frame_id);

  model.buses[1].protocol = Protocol::kCan;
  model.buses[3].protocol = Protocol::kCan;

  BusModel& most = model.buses[2];
  most.protocol = Protocol::kMost;
  most.most_frame_period_s = net.infotainment_most().frame_period_s();
  most.most_async_budget_bytes = net.infotainment_most().async_bytes_per_frame();

  BusModel& chassis = model.buses[4];
  chassis.protocol = Protocol::kFlexRay;
  const network::FlexRayConfig& fr = net.chassis_flexray().config();
  chassis.fr_cycle_s = net.chassis_flexray().cycle_time_s();
  chassis.fr_static_segment_s = net.chassis_flexray().static_segment_s();
  chassis.fr_slot_s =
      chassis.fr_static_segment_s / static_cast<double>(fr.static_slots.size());
  chassis.fr_minislot_s = fr.minislot_s;
  chassis.fr_dynamic_s = static_cast<double>(fr.minislot_count) * fr.minislot_s;
  for (std::size_t i = 0; i < fr.static_slots.size(); ++i)
    chassis.fr_static_slot.emplace(fr.static_slots[i].frame_id, i);

  // --- Periodic frames: topology sources + the co-sim's own publications ----
  const auto bus_index = [&buses](const network::Bus* bus) -> std::size_t {
    for (std::size_t i = 0; i < buses.size(); ++i)
      if (buses[i] == bus) return i;
    throw std::logic_error("extract_model: source on a bus outside Fig. 1");
  };
  for (const network::PeriodicSource& src : net.sources()) {
    FrameModel frame;
    frame.bus = bus_index(src.bus);
    frame.id = src.frame_id;
    frame.base_id = src.base_id;
    frame.payload_bytes = src.payload_bytes;
    frame.period_s = src.period_s;
    frame.description = src.description;
    // The Fig. 1 id blocks are per-domain: 0x800+ identifies MOST-native
    // traffic, which the topology builder anchors to its bus.
    frame.movable = src.base_id < 0x800;
    model.frames.push_back(std::move(frame));
  }
  {
    FrameModel bms;
    bms.bus = 4;
    bms.id = network::kFrameIdBmsStatus;
    bms.base_id = network::kFrameIdBmsStatus;
    bms.payload_bytes = 2 * sizeof(double);
    bms.period_s = spec.timing.bms_publish_period_s;
    bms.description = "BMS status";
    model.frames.push_back(std::move(bms));
  }
  if (spec.subsystems.security) {
    const core::SecuritySubsystem::Options security{};
    const security::ChannelConfig& channel = security.channel;
    FrameModel telemetry;
    telemetry.bus = 4;
    telemetry.id = core::kFrameIdSecureTelemetry;
    telemetry.base_id = core::kFrameIdSecureTelemetry;
    telemetry.payload_bytes =
        2 * sizeof(double) + channel.counter_bytes + channel.tag_bytes;
    telemetry.period_s = security.publish_period_s;
    telemetry.description = "secure telemetry";
    model.frames.push_back(std::move(telemetry));
  }

  // --- Gateway routes and the frames they inject downstream -----------------
  model.gateway_delay_s = net.gateway().processing_delay_s();
  for (const network::GatewayRoute& route : net.gateway().routes()) {
    RouteModel r;
    r.from_bus = bus_index(route.from);
    r.match_id = route.match_id;
    r.to_bus = bus_index(route.to);
    r.translated_id = route.translated_id;
    r.translated_payload = route.translated_payload;
    model.routes.push_back(r);
  }
  const std::size_t local_count = model.frames.size();
  for (const RouteModel& route : model.routes) {
    for (std::size_t i = 0; i < local_count; ++i) {
      const FrameModel& src = model.frames[i];
      if (src.bus != route.from_bus || src.id != route.match_id) continue;
      FrameModel out;
      out.bus = route.to_bus;
      out.id = route.translated_id;
      out.payload_bytes =
          route.translated_payload > 0 ? route.translated_payload : src.payload_bytes;
      out.period_s = src.period_s;
      out.description = src.description + " (routed)";
      out.routed = true;
      out.source_frame = i;
      // Translated wire ids may have been renumbered (arch.frame_id keys on
      // the original id); invert the remap on the destination bus, where
      // the new id is unique, to recover the base identifier.
      out.base_id = out.id;
      for (const config::FrameIdSpec& remap : spec.arch.frame_ids)
        if (remap.new_id == out.id && spec.arch.bus_of(remap.frame_id) == out.bus)
          out.base_id = remap.frame_id;
      model.frames.push_back(std::move(out));
    }
  }

  // Frames that feed a gateway route are anchored: moving the source would
  // sever the cross-domain flow the route exists for. Renumbering is a CAN
  // notion (the id is the arbitration priority), so any frame whose final
  // bus is CAN takes it.
  for (FrameModel& frame : model.frames) {
    for (const RouteModel& route : model.routes)
      if (!frame.routed && frame.bus == route.from_bus && frame.id == route.match_id)
        frame.movable = false;
    frame.id_mutable = model.buses[frame.bus].protocol == Protocol::kCan;
  }

  // Classify the MOST ids actually in use (streams are private to the bus).
  for (const FrameModel& frame : model.frames)
    if (frame.bus == 2 && net.infotainment_most().is_synchronous(frame.id))
      most.most_sync_ids.push_back(frame.id);

  return model;
}

}  // namespace ev::analysis

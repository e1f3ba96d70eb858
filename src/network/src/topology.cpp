#include "ev/network/topology.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ev::network {

namespace {

// Frame-id blocks per domain keep gateway translation unambiguous.
constexpr std::uint32_t kChassisBase = 0x100;
constexpr std::uint32_t kSafetyBase = 0x200;
constexpr std::uint32_t kComfortBase = 0x300;
constexpr std::uint32_t kLinBase = 0x10;
constexpr std::uint32_t kMostBase = 0x800;

[[noreturn]] void arch_fail(const std::string& what) {
  throw std::invalid_argument("figure1 arch: " + what);
}

// Applies the static-slot permutation: overridden frames sit at their
// requested slot index, the remaining frames fill free slots in default
// order. The result is always a permutation of the default slot list.
std::vector<FlexRaySlot> permute_static_slots(
    std::vector<FlexRaySlot> base, const std::vector<ArchOverrides::FrSlot>& overrides) {
  if (overrides.empty()) return base;
  std::vector<FlexRaySlot> out(base.size());
  std::vector<char> slot_taken(base.size(), 0);
  std::vector<char> frame_placed(base.size(), 0);
  for (const ArchOverrides::FrSlot& o : overrides) {
    std::size_t src = base.size();
    for (std::size_t i = 0; i < base.size(); ++i)
      if (base[i].frame_id == o.frame_id) src = i;
    if (src == base.size())
      arch_fail("fr_slot names a frame with no default static slot");
    if (o.slot >= base.size()) arch_fail("fr_slot index out of range");
    if (slot_taken[o.slot] != 0) arch_fail("fr_slot assigns one slot twice");
    if (frame_placed[src] != 0) arch_fail("fr_slot places one frame twice");
    out[o.slot] = base[src];
    slot_taken[o.slot] = 1;
    frame_placed[src] = 1;
  }
  std::size_t next = 0;
  for (std::size_t slot = 0; slot < base.size(); ++slot) {
    if (slot_taken[slot] != 0) continue;
    while (frame_placed[next] != 0) ++next;
    out[slot] = base[next];
    frame_placed[next] = 1;
  }
  return out;
}

}  // namespace

Figure1Network::Figure1Network(sim::Simulator& sim, const Figure1Config& config)
    : sim_(&sim), config_(config) {
  // --- Chassis FlexRay: time-triggered control traffic ----------------------
  FlexRayConfig fr;
  fr.static_payload_bytes = 16;
  fr.static_slots = permute_static_slots(
      {
          {kChassisBase + 0, 1, 16},  // brake command (brake-by-wire)
          {kChassisBase + 1, 2, 16},  // steering command
          {kChassisBase + 2, 3, 16},  // wheel speeds front
          {kChassisBase + 3, 3, 16},  // wheel speeds rear
          {kChassisBase + 4, 4, 16},  // motor torque command
          {kChassisBase + 5, 5, 16},  // motor status
          {kChassisBase + 6, 6, 16},  // BMS pack status
          {kChassisBase + 7, 7, 16},  // suspension
      },
      config.arch.fr_slots);
  chassis_fr_ = std::make_unique<FlexRayBus>(sim, "chassis(FlexRay)", fr,
                                             config.flexray_bit_rate);

  // --- Safety CAN: airbag/ABS/ESP event + periodic traffic -------------------
  safety_can_ = std::make_unique<CanBus>(sim, "safety(CAN)", config.can_bit_rate);

  // --- Comfort CAN ------------------------------------------------------------
  comfort_can_ = std::make_unique<CanBus>(sim, "comfort(CAN)", config.can_bit_rate);

  // --- Body LIN sub-network ----------------------------------------------------
  std::vector<LinSlot> lin_schedule = {
      {kLinBase + 0, 30, 2},  // window lift switches
      {kLinBase + 1, 31, 2},  // mirror position
      {kLinBase + 2, 32, 4},  // rain/light sensor
      {kLinBase + 3, 33, 2},  // seat heater
  };
  body_lin_ = std::make_unique<LinBus>(sim, "sub-network(LIN)", std::move(lin_schedule),
                                       0.01, config.lin_bit_rate);

  // --- Infotainment MOST --------------------------------------------------------
  std::vector<MostStream> streams = {
      {kMostBase + 0, 8},  // main audio stream
      {kMostBase + 1, 4},  // voice channel
  };
  most_ = std::make_unique<MostBus>(sim, "infotainment(MOST)", std::move(streams));

  // --- Central gateway -----------------------------------------------------------
  gateway_ = std::make_unique<Gateway>(sim, "central-gateway");

  // --- Periodic traffic -------------------------------------------------------
  const double s = 1.0 / std::max(config.load_scale, 1e-6);
  // Chassis control loops at 10 ms, status at 100 ms.
  add_source({chassis_fr_.get(), kChassisBase + 0, 1, 16, 0.010 * s, 0.0, "brake cmd"});
  add_source({chassis_fr_.get(), kChassisBase + 1, 2, 16, 0.010 * s, 0.001, "steering cmd"});
  add_source({chassis_fr_.get(), kChassisBase + 2, 3, 16, 0.010 * s, 0.002, "wheel spd F"});
  add_source({chassis_fr_.get(), kChassisBase + 3, 3, 16, 0.010 * s, 0.003, "wheel spd R"});
  add_source({chassis_fr_.get(), kChassisBase + 4, 4, 16, 0.010 * s, 0.004, "torque cmd"});
  add_source({chassis_fr_.get(), kChassisBase + 5, 5, 16, 0.020 * s, 0.005, "motor status"});
  if (config.synthetic_bms_source)
    add_source({chassis_fr_.get(), kChassisBase + 6, 6, 16, 0.100 * s, 0.006, "BMS status"});
  add_source({chassis_fr_.get(), kChassisBase + 7, 7, 16, 0.020 * s, 0.007, "suspension"});
  // Safety CAN.
  add_source({safety_can_.get(), kSafetyBase + 0, 10, 8, 0.100 * s, 0.0, "crash status"});
  add_source({safety_can_.get(), kSafetyBase + 1, 11, 8, 0.010 * s, 0.001, "ABS status"});
  add_source({safety_can_.get(), kSafetyBase + 2, 12, 8, 0.010 * s, 0.002, "ESP status"});
  add_source({safety_can_.get(), kSafetyBase + 3, 13, 6, 0.020 * s, 0.003, "airbag diag"});
  add_source({safety_can_.get(), kSafetyBase + 4, 14, 8, 0.050 * s, 0.004, "belt status"});
  // Comfort CAN.
  add_source({comfort_can_.get(), kComfortBase + 0, 20, 8, 0.050 * s, 0.0, "door status"});
  add_source({comfort_can_.get(), kComfortBase + 1, 21, 8, 0.100 * s, 0.01, "climate"});
  add_source({comfort_can_.get(), kComfortBase + 2, 22, 4, 0.200 * s, 0.02, "seat pos"});
  add_source({comfort_can_.get(), kComfortBase + 3, 23, 8, 0.100 * s, 0.03, "lighting"});
  // LIN slaves publish each slot period.
  add_source({body_lin_.get(), kLinBase + 0, 30, 2, 0.040 * s, 0.0, "window sw"});
  add_source({body_lin_.get(), kLinBase + 1, 31, 2, 0.040 * s, 0.01, "mirror pos"});
  add_source({body_lin_.get(), kLinBase + 2, 32, 4, 0.040 * s, 0.02, "rain sensor"});
  add_source({body_lin_.get(), kLinBase + 3, 33, 2, 0.040 * s, 0.03, "seat heater"});
  // MOST: audio isochronous blocks + nav async bursts.
  add_source({most_.get(), kMostBase + 0, 40, 8, 0.005, 0.0, "audio block"});
  add_source({most_.get(), kMostBase + 2, 41, 256, 0.050 * s, 0.01, "nav data"});

  // --- Arch overrides (bus moves + CAN renumbering) --------------------------
  apply_arch_overrides();

  // --- Gateway routes (match/translated ids follow any renumbering) ---------
  const auto fid = [&config](std::uint32_t id) {
    for (const ArchOverrides::FrameId& o : config.arch.frame_ids)
      if (o.frame_id == id) return o.new_id;
    return id;
  };
  // Wheel speeds chassis -> comfort (dashboard display).
  gateway_->add_route({chassis_fr_.get(), fid(kChassisBase + 2), comfort_can_.get(),
                       fid(kComfortBase + 0x40), 8});
  // BMS pack status chassis -> MOST (range display in infotainment).
  gateway_->add_route({chassis_fr_.get(), fid(kChassisBase + 6), most_.get(),
                       kMostBase + 0x40, 0});
  // Crash signal safety -> chassis (triggers HV shutdown).
  gateway_->add_route({safety_can_.get(), fid(kSafetyBase + 0), chassis_fr_.get(),
                       kChassisBase + 0x50, 8});
  // Climate state comfort -> MOST (UI).
  gateway_->add_route({comfort_can_.get(), fid(kComfortBase + 1), most_.get(),
                       kMostBase + 0x41, 0});

  // A renumbering that lands on an id already used on the same bus would
  // merge two flows; reject the design instead.
  std::vector<std::pair<const Bus*, std::uint32_t>> wire_ids;
  for (const PeriodicSource& src : sources_) wire_ids.emplace_back(src.bus, src.frame_id);
  wire_ids.emplace_back(comfort_can_.get(), fid(kComfortBase + 0x40));
  wire_ids.emplace_back(most_.get(), kMostBase + 0x40);
  wire_ids.emplace_back(chassis_fr_.get(), kChassisBase + 0x50);
  wire_ids.emplace_back(most_.get(), kMostBase + 0x41);
  if (!config.synthetic_bms_source)
    wire_ids.emplace_back(chassis_fr_.get(), kFrameIdBmsStatus);
  std::sort(wire_ids.begin(), wire_ids.end());
  for (std::size_t i = 1; i < wire_ids.size(); ++i)
    if (wire_ids[i] == wire_ids[i - 1]) arch_fail("duplicate frame id on one bus");

  // --- Cross-domain latency probes ------------------------------------------
  monitor_flow({"wheel-speed->dashboard", comfort_can_.get(), fid(kComfortBase + 0x40)});
  monitor_flow({"bms->infotainment", most_.get(), kMostBase + 0x40});
  monitor_flow({"crash->chassis", chassis_fr_.get(), kChassisBase + 0x50});
}

void Figure1Network::add_source(PeriodicSource src) {
  src.base_id = src.frame_id;
  sources_.push_back(std::move(src));
}

void Figure1Network::apply_arch_overrides() {
  const ArchOverrides& arch = config_.arch;
  if (arch.frame_buses.empty() && arch.frame_ids.empty()) return;
  Bus* const by_index[] = {body_lin_.get(), comfort_can_.get(), most_.get(),
                           safety_can_.get(), chassis_fr_.get()};
  constexpr std::size_t kBusCount = 5;
  // Frames a gateway route matches stay put: moving the source would
  // silently sever the cross-domain flow.
  const std::uint32_t route_matched[] = {kChassisBase + 2, kChassisBase + 6,
                                         kSafetyBase + 0, kComfortBase + 1};
  const auto find_source = [this](std::uint32_t base_id) -> PeriodicSource* {
    for (PeriodicSource& src : sources_)
      if (src.base_id == base_id) return &src;
    return nullptr;
  };
  for (const ArchOverrides::FrameBus& o : arch.frame_buses) {
    if (o.bus_index >= kBusCount) arch_fail("frame_bus index out of range");
    PeriodicSource* src = find_source(o.frame_id);
    if (src == nullptr) arch_fail("frame_bus names an unknown frame");
    if (src->bus == most_.get()) arch_fail("MOST frames are anchored");
    for (std::uint32_t anchored : route_matched)
      if (o.frame_id == anchored) arch_fail("gateway-routed frames are anchored");
    src->bus = by_index[o.bus_index];
  }
  for (const ArchOverrides::FrameId& o : arch.frame_ids) {
    if (PeriodicSource* src = find_source(o.frame_id)) {
      if (src->bus != comfort_can_.get() && src->bus != safety_can_.get())
        arch_fail("only frames on a CAN bus can be renumbered");
      src->frame_id = o.new_id;
      continue;
    }
    // The only renumberable non-source frame: the gateway-translated wheel
    // speed copy on comfort CAN (applied when routes are built).
    if (o.frame_id != kComfortBase + 0x40)
      arch_fail("frame_id names an unknown or fixed-id frame");
  }
}

void Figure1Network::monitor_flow(const CrossDomainFlow& flow) {
  util::RunningStats& summary = flow_latency_[flow.name];
  const std::uint32_t id = flow.destination_id;
  flow.destination_bus->subscribe([&summary, id](const Frame& f, sim::Time at) {
    if (f.id == id) summary.add((at - f.created).to_seconds());
  });
}

void Figure1Network::start() {
  if (started_) return;
  started_ = true;
  body_lin_->start();
  most_->start();
  chassis_fr_->start();
  for (const PeriodicSource& src : sources_) {
    Bus* bus = src.bus;
    Frame proto;
    proto.id = src.frame_id;
    proto.source = src.source;
    proto.payload_size = src.payload_bytes;
    sim_->schedule_periodic(sim::Time::seconds(src.offset_s) + sim::Time::us(1),
                            sim::Time::seconds(src.period_s),
                            [bus, proto]() mutable { (void)bus->send(proto); });
  }
}

std::vector<Bus*> Figure1Network::buses() noexcept {
  return {body_lin_.get(), comfort_can_.get(), most_.get(), safety_can_.get(),
          chassis_fr_.get()};
}

}  // namespace ev::network

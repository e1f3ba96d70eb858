#include "ev/config/fleet.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "kv_text.h"

namespace ev::config {

template <>
struct detail::EnumNames<GridFaultKindSpec> {
  static constexpr const char* kWhat = "grid fault kind";
  static constexpr std::string_view kNames[] = {"grid.capacity_drop", "grid.feeder_partition",
                                                "comms.blackout"};
};

// The values of one gridfault line, in text order (see kv_text.h).
void entry_fields(detail::MaybeConst<GridFaultSpec> auto& f, auto&& visit) {
  visit("<at_s>", f.at_s);
  visit("<kind>", f.kind);
  visit("<target>", f.target);
  visit("<value>", f.value);
  visit("<duration_s>", f.duration_s);
}

namespace {

using detail::fail;

// Every key of fleet text, in to_text order.
void fields(detail::MaybeConst<FleetSpec> auto& s, auto&& visit) {
  visit("fleet.name", s.name);
  visit("fleet.stations", s.stations);
  visit("fleet.feeders", s.feeders);
  visit("fleet.sim_hours", s.sim_hours);
  visit("fleet.tick_s", s.tick_s);
  visit("fleet.seed", s.seed);
  visit("station.max_current_a", s.station_max_current_a);
  visit("station.min_current_a", s.station_min_current_a);
  visit("station.safe_current_a", s.station_safe_current_a);
  visit("station.voltage_v", s.station_voltage_v);
  visit("station.rogue_count", s.rogue_stations);
  visit("sessions.arrival_rate_per_station_per_h", s.arrival_rate_per_station_per_h);
  visit("sessions.energy_min_kwh", s.session_energy_min_kwh);
  visit("sessions.energy_max_kwh", s.session_energy_max_kwh);
  visit("sessions.meter_period_s", s.meter_period_s);
  visit("grid.capacity_kw", s.grid_capacity_kw);
  visit("grid.rebalance_period_s", s.rebalance_period_s);
  visit("heartbeat.period_s", s.heartbeat_period_s);
  visit("heartbeat.lease_s", s.heartbeat_lease_s);
  visit("channel.loss_probability", s.msg_loss_probability);
  visit("retry.max_attempts", s.retry_max_attempts);
  visit("retry.timeout_s", s.retry_timeout_s);
  visit("retry.backoff_base_s", s.retry_backoff_base_s);
  visit("retry.backoff_cap_s", s.retry_backoff_cap_s);
  visit("retry.jitter", s.retry_jitter);
  visit("gridfault", s.grid_faults);
}

}  // namespace

std::string to_string(GridFaultKindSpec kind) { return std::string(detail::enum_name(kind)); }

void FleetSpec::validate() const {
  fields(*this, detail::FiniteCheck{"fleet"});
  if (name.empty()) fail("fleet: name must not be empty");
  if (name.find_first_of(" \t\n=") != std::string::npos)
    fail("fleet: name must not contain whitespace or '='");
  if (stations == 0) fail("fleet: fleet.stations must be positive");
  if (feeders == 0) fail("fleet: fleet.feeders must be positive");
  if (feeders > stations) fail("fleet: fleet.feeders must not exceed fleet.stations");
  if (sim_hours <= 0.0) fail("fleet: fleet.sim_hours must be positive");
  if (tick_s <= 0.0) fail("fleet: fleet.tick_s must be positive");
  if (station_max_current_a <= 0.0)
    fail("fleet: station.max_current_a must be positive");
  if (station_min_current_a <= 0.0 || station_min_current_a > station_max_current_a)
    fail("fleet: station.min_current_a must lie in (0, station.max_current_a]");
  if (station_safe_current_a <= 0.0 || station_safe_current_a > station_max_current_a)
    fail("fleet: station.safe_current_a must lie in (0, station.max_current_a]");
  if (station_voltage_v <= 0.0) fail("fleet: station.voltage_v must be positive");
  if (rogue_stations > stations)
    fail("fleet: station.rogue_count must not exceed fleet.stations");
  if (arrival_rate_per_station_per_h < 0.0)
    fail("fleet: sessions.arrival_rate_per_station_per_h must be non-negative");
  if (session_energy_min_kwh <= 0.0 || session_energy_max_kwh < session_energy_min_kwh)
    fail("fleet: sessions.energy_min_kwh/_max_kwh must satisfy 0 < min <= max");
  if (meter_period_s <= 0.0) fail("fleet: sessions.meter_period_s must be positive");
  if (grid_capacity_kw <= 0.0) fail("fleet: grid.capacity_kw must be positive");
  if (rebalance_period_s < tick_s)
    fail("fleet: grid.rebalance_period_s must be >= fleet.tick_s");
  if (heartbeat_period_s <= 0.0) fail("fleet: heartbeat.period_s must be positive");
  if (heartbeat_lease_s < heartbeat_period_s)
    fail("fleet: heartbeat.lease_s must be >= heartbeat.period_s");
  if (msg_loss_probability < 0.0 || msg_loss_probability >= 1.0)
    fail("fleet: channel.loss_probability must lie in [0, 1)");
  if (retry_max_attempts == 0) fail("fleet: retry.max_attempts must be >= 1");
  if (retry_timeout_s <= 0.0) fail("fleet: retry.timeout_s must be positive");
  if (retry_backoff_base_s <= 0.0) fail("fleet: retry.backoff_base_s must be positive");
  if (retry_backoff_cap_s < retry_backoff_base_s)
    fail("fleet: retry.backoff_cap_s must be >= retry.backoff_base_s");
  if (retry_jitter < 0.0 || retry_jitter > 1.0)
    fail("fleet: retry.jitter must lie in [0, 1]");
  for (std::size_t i = 0; i < grid_faults.size(); ++i) {
    const GridFaultSpec& f = grid_faults[i];
    const std::string at = "gridfault." + std::to_string(i);
    if (!std::isfinite(f.at_s)) fail("fleet: " + at + " time must be finite");
    if (!std::isfinite(f.value)) fail("fleet: " + at + " value must be finite");
    if (!std::isfinite(f.duration_s)) fail("fleet: " + at + " duration must be finite");
    if (f.at_s < 0.0) fail("fleet: " + at + " time must be non-negative");
    if (f.duration_s <= 0.0) fail("fleet: " + at + " needs a positive duration");
    switch (f.kind) {
      case GridFaultKindSpec::kCapacityDrop:
        if (f.value <= 0.0 || f.value > 1.0)
          fail("fleet: " + at + " capacity drop fraction must lie in (0, 1]");
        break;
      case GridFaultKindSpec::kFeederPartition:
        if (f.target >= feeders) fail("fleet: " + at + " names an unknown feeder");
        break;
      case GridFaultKindSpec::kCommsBlackout:
        if (f.value < 1.0) fail("fleet: " + at + " needs a station count >= 1");
        if (f.target >= stations || f.target + static_cast<std::uint64_t>(f.value) > stations)
          fail("fleet: " + at + " station range exceeds the fleet");
        break;
    }
  }
}

std::string FleetSpec::to_text() const {
  std::string out = "# evsys fleet scenario\n";
  fields(*this, detail::TextWriter{out});
  return out;
}

FleetSpec FleetSpec::from_text(const std::string& text) {
  FleetSpec spec;
  detail::read_text(text, "fleet", [&spec](auto&& visit) { fields(spec, visit); });
  spec.validate();
  return spec;
}

FleetSpec load_fleet_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("fleet: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return FleetSpec::from_text(buf.str());
}

}  // namespace ev::config

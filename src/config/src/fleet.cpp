#include "ev/config/fleet.h"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "ev/config/scenario.h"  // format_double
#include "kv_text.h"

namespace ev::config {
namespace {

using detail::fail;

GridFaultKindSpec parse_grid_fault_kind(const std::string& s) {
  if (s == "grid.capacity_drop") return GridFaultKindSpec::kCapacityDrop;
  if (s == "grid.feeder_partition") return GridFaultKindSpec::kFeederPartition;
  if (s == "comms.blackout") return GridFaultKindSpec::kCommsBlackout;
  fail("fleet: unknown grid fault kind '" + s + "'");
}

double parse_double(const std::string& s, const std::string& key) {
  return detail::parse_double(s, key, "fleet");
}
std::uint64_t parse_u64(const std::string& s, const std::string& key) {
  return detail::parse_u64(s, key, "fleet");
}

}  // namespace

std::string to_string(GridFaultKindSpec kind) {
  switch (kind) {
    case GridFaultKindSpec::kCapacityDrop: return "grid.capacity_drop";
    case GridFaultKindSpec::kFeederPartition: return "grid.feeder_partition";
    case GridFaultKindSpec::kCommsBlackout: return "comms.blackout";
  }
  return "grid.capacity_drop";
}

void FleetSpec::validate() const {
  // NaN slips through the range comparisons below (every comparison is
  // false) and +inf passes one-sided lower-bound checks, so finiteness is
  // asserted first; a valid spec holds only finite doubles, matching what
  // the parser accepts.
  const auto finite = [](double v, const char* what) {
    if (!std::isfinite(v)) fail(std::string("fleet: ") + what + " must be finite");
  };
  finite(sim_hours, "fleet.sim_hours");
  finite(tick_s, "fleet.tick_s");
  finite(station_max_current_a, "station.max_current_a");
  finite(station_min_current_a, "station.min_current_a");
  finite(station_safe_current_a, "station.safe_current_a");
  finite(station_voltage_v, "station.voltage_v");
  finite(arrival_rate_per_station_per_h, "sessions.arrival_rate_per_station_per_h");
  finite(session_energy_min_kwh, "sessions.energy_min_kwh");
  finite(session_energy_max_kwh, "sessions.energy_max_kwh");
  finite(meter_period_s, "sessions.meter_period_s");
  finite(grid_capacity_kw, "grid.capacity_kw");
  finite(rebalance_period_s, "grid.rebalance_period_s");
  finite(heartbeat_period_s, "heartbeat.period_s");
  finite(heartbeat_lease_s, "heartbeat.lease_s");
  finite(msg_loss_probability, "channel.loss_probability");
  finite(retry_timeout_s, "retry.timeout_s");
  finite(retry_backoff_base_s, "retry.backoff_base_s");
  finite(retry_backoff_cap_s, "retry.backoff_cap_s");
  finite(retry_jitter, "retry.jitter");
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
  std::ostringstream out;
  out << "# evsys fleet scenario\n";
  out << "fleet.name = " << name << "\n";
  out << "fleet.stations = " << stations << "\n";
  out << "fleet.feeders = " << feeders << "\n";
  out << "fleet.sim_hours = " << format_double(sim_hours) << "\n";
  out << "fleet.tick_s = " << format_double(tick_s) << "\n";
  out << "fleet.seed = " << seed << "\n";
  out << "station.max_current_a = " << format_double(station_max_current_a) << "\n";
  out << "station.min_current_a = " << format_double(station_min_current_a) << "\n";
  out << "station.safe_current_a = " << format_double(station_safe_current_a) << "\n";
  out << "station.voltage_v = " << format_double(station_voltage_v) << "\n";
  out << "station.rogue_count = " << rogue_stations << "\n";
  out << "sessions.arrival_rate_per_station_per_h = "
      << format_double(arrival_rate_per_station_per_h) << "\n";
  out << "sessions.energy_min_kwh = " << format_double(session_energy_min_kwh) << "\n";
  out << "sessions.energy_max_kwh = " << format_double(session_energy_max_kwh) << "\n";
  out << "sessions.meter_period_s = " << format_double(meter_period_s) << "\n";
  out << "grid.capacity_kw = " << format_double(grid_capacity_kw) << "\n";
  out << "grid.rebalance_period_s = " << format_double(rebalance_period_s) << "\n";
  out << "heartbeat.period_s = " << format_double(heartbeat_period_s) << "\n";
  out << "heartbeat.lease_s = " << format_double(heartbeat_lease_s) << "\n";
  out << "channel.loss_probability = " << format_double(msg_loss_probability) << "\n";
  out << "retry.max_attempts = " << retry_max_attempts << "\n";
  out << "retry.timeout_s = " << format_double(retry_timeout_s) << "\n";
  out << "retry.backoff_base_s = " << format_double(retry_backoff_base_s) << "\n";
  out << "retry.backoff_cap_s = " << format_double(retry_backoff_cap_s) << "\n";
  out << "retry.jitter = " << format_double(retry_jitter) << "\n";
  for (std::size_t i = 0; i < grid_faults.size(); ++i) {
    const GridFaultSpec& f = grid_faults[i];
    out << "gridfault." << i << " = " << format_double(f.at_s) << " "
        << to_string(f.kind) << " " << f.target << " " << format_double(f.value)
        << " " << format_double(f.duration_s) << "\n";
  }
  return out.str();
}

FleetSpec FleetSpec::from_text(const std::string& text) {
  FleetSpec spec;
  std::istringstream in(text);
  std::string line;
  std::size_t next_fault = 0;
  std::set<std::string> seen;
  while (std::getline(in, line)) {
    const std::string stripped = detail::trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos)
      fail("fleet: expected 'key = value', got '" + stripped + "'");
    const std::string key = detail::trim(stripped.substr(0, eq));
    const std::string value = detail::trim(stripped.substr(eq + 1));
    if (key.empty() || value.empty())
      fail("fleet: empty key or value in '" + stripped + "'");
    if (!seen.insert(key).second) fail("fleet: duplicate key '" + key + "'");

    if (key == "fleet.name") {
      spec.name = value;
    } else if (key == "fleet.stations") {
      spec.stations = parse_u64(value, key);
    } else if (key == "fleet.feeders") {
      spec.feeders = parse_u64(value, key);
    } else if (key == "fleet.sim_hours") {
      spec.sim_hours = parse_double(value, key);
    } else if (key == "fleet.tick_s") {
      spec.tick_s = parse_double(value, key);
    } else if (key == "fleet.seed") {
      spec.seed = parse_u64(value, key);
    } else if (key == "station.max_current_a") {
      spec.station_max_current_a = parse_double(value, key);
    } else if (key == "station.min_current_a") {
      spec.station_min_current_a = parse_double(value, key);
    } else if (key == "station.safe_current_a") {
      spec.station_safe_current_a = parse_double(value, key);
    } else if (key == "station.voltage_v") {
      spec.station_voltage_v = parse_double(value, key);
    } else if (key == "station.rogue_count") {
      spec.rogue_stations = parse_u64(value, key);
    } else if (key == "sessions.arrival_rate_per_station_per_h") {
      spec.arrival_rate_per_station_per_h = parse_double(value, key);
    } else if (key == "sessions.energy_min_kwh") {
      spec.session_energy_min_kwh = parse_double(value, key);
    } else if (key == "sessions.energy_max_kwh") {
      spec.session_energy_max_kwh = parse_double(value, key);
    } else if (key == "sessions.meter_period_s") {
      spec.meter_period_s = parse_double(value, key);
    } else if (key == "grid.capacity_kw") {
      spec.grid_capacity_kw = parse_double(value, key);
    } else if (key == "grid.rebalance_period_s") {
      spec.rebalance_period_s = parse_double(value, key);
    } else if (key == "heartbeat.period_s") {
      spec.heartbeat_period_s = parse_double(value, key);
    } else if (key == "heartbeat.lease_s") {
      spec.heartbeat_lease_s = parse_double(value, key);
    } else if (key == "channel.loss_probability") {
      spec.msg_loss_probability = parse_double(value, key);
    } else if (key == "retry.max_attempts") {
      spec.retry_max_attempts = parse_u64(value, key);
    } else if (key == "retry.timeout_s") {
      spec.retry_timeout_s = parse_double(value, key);
    } else if (key == "retry.backoff_base_s") {
      spec.retry_backoff_base_s = parse_double(value, key);
    } else if (key == "retry.backoff_cap_s") {
      spec.retry_backoff_cap_s = parse_double(value, key);
    } else if (key == "retry.jitter") {
      spec.retry_jitter = parse_double(value, key);
    } else if (key.rfind("gridfault.", 0) == 0) {
      const std::uint64_t index = parse_u64(key.substr(10), key);
      if (index != next_fault)
        fail("fleet: gridfault entries must be numbered consecutively from 0; got '" +
             key + "'");
      const std::vector<std::string> fields = detail::split_ws(value);
      if (fields.size() != 5)
        fail("fleet: '" + key +
             "' expects '<at_s> <kind> <target> <value> <duration_s>'");
      GridFaultSpec f;
      f.at_s = parse_double(fields[0], key);
      f.kind = parse_grid_fault_kind(fields[1]);
      f.target = parse_u64(fields[2], key);
      f.value = parse_double(fields[3], key);
      f.duration_s = parse_double(fields[4], key);
      spec.grid_faults.push_back(f);
      ++next_fault;
    } else {
      fail("fleet: unknown key '" + key + "'");
    }
  }
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

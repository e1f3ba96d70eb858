#include "ev/fleet/simulation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <span>
#include <sstream>
#include <vector>

#include "ev/config/scenario.h"  // format_double
#include "ev/faults/grid_faults.h"
#include "ev/util/crc.h"
#include "ev/util/json.h"
#include "ev/util/rng.h"

namespace ev::fleet {
namespace {

faults::GridFaultKind map_kind(config::GridFaultKindSpec kind) {
  switch (kind) {
    case config::GridFaultKindSpec::kCapacityDrop:
      return faults::GridFaultKind::kCapacityDrop;
    case config::GridFaultKindSpec::kFeederPartition:
      return faults::GridFaultKind::kFeederPartition;
    case config::GridFaultKindSpec::kCommsBlackout:
      return faults::GridFaultKind::kCommsBlackout;
  }
  return faults::GridFaultKind::kCapacityDrop;
}

faults::GridFaultTimeline build_timeline(const config::FleetSpec& spec) {
  std::vector<faults::GridFaultEvent> events;
  events.reserve(spec.grid_faults.size());
  for (const config::GridFaultSpec& f : spec.grid_faults) {
    faults::GridFaultEvent event;
    event.at_s = f.at_s;
    event.kind = map_kind(f.kind);
    event.target = static_cast<std::size_t>(f.target);
    event.value = f.value;
    event.duration_s = f.duration_s;
    events.push_back(event);
  }
  return faults::GridFaultTimeline(std::move(events));
}

/// Fleet master key, derived from the spec seed alone.
security::Key derive_master(std::uint64_t seed) {
  util::Rng rng(seed ^ 0xfeedc0ffee123457ULL);
  security::Key master(32);
  for (std::size_t block = 0; block < 4; ++block) {
    const std::uint64_t word = rng.next_u64();
    std::memcpy(master.data() + block * 8, &word, 8);
  }
  return master;
}

void fold_station_stats(StationStats& into, const StationStats& from) {
  into.arrivals += from.arrivals;
  into.sessions_started += from.sessions_started;
  into.sessions_completed += from.sessions_completed;
  into.sessions_rejected += from.sessions_rejected;
  into.sessions_abandoned += from.sessions_abandoned;
  into.suspend_events += from.suspend_events;
  into.lease_expiries += from.lease_expiries;
  into.reconnects += from.reconnects;
  into.throttle_ticks += from.throttle_ticks;
  into.meter_reports += from.meter_reports;
  into.dead_letters += from.dead_letters;
  into.redelivered += from.redelivered;
  into.energy_delivered_kwh += from.energy_delivered_kwh;
}

void record_metrics(const FleetResult& result, obs::MetricsRegistry& metrics) {
  metrics.add(metrics.counter("fleet.ticks"), result.ticks);
  metrics.add(metrics.counter("fleet.arrivals"), result.stations.arrivals);
  metrics.add(metrics.counter("fleet.sessions_started"),
              result.stations.sessions_started);
  metrics.add(metrics.counter("fleet.sessions_completed"),
              result.stations.sessions_completed);
  metrics.add(metrics.counter("fleet.sessions_rejected"),
              result.stations.sessions_rejected);
  metrics.add(metrics.counter("fleet.sessions_abandoned"),
              result.stations.sessions_abandoned);
  metrics.add(metrics.counter("fleet.messages_delivered"), result.messages_delivered);
  metrics.add(metrics.counter("fleet.messages_retried"), result.messages_retried);
  metrics.add(metrics.counter("fleet.messages_dead_lettered"),
              result.messages_dead_lettered);
  metrics.add(metrics.counter("fleet.lease_expiries"), result.stations.lease_expiries);
  metrics.add(metrics.counter("fleet.reconnects"), result.stations.reconnects);
  metrics.add(metrics.counter("fleet.rebalances"), result.central.rebalances);
  metrics.add(metrics.counter("fleet.shed_suspensions"),
              result.central.shed_suspensions);
  metrics.add(metrics.counter("fleet.authorize_rejected"),
              result.central.authorize_rejected);
  metrics.add(metrics.counter("fleet.grid_violations"), result.grid_violations);
  metrics.set_max(metrics.gauge("fleet.peak_draw_kw"), result.peak_draw_kw);
  metrics.set(metrics.gauge("fleet.min_headroom_kw"), result.min_headroom_kw);
  metrics.set(metrics.gauge("fleet.open_transactions_end"),
              static_cast<double>(result.open_transactions_end));
  const double hours = result.sim_hours > 0.0 ? result.sim_hours : 1.0;
  metrics.set(metrics.gauge("fleet.sessions_per_hour"),
              static_cast<double>(result.stations.sessions_completed) / hours);
  metrics.set(metrics.gauge("fleet.billed_kwh"), result.central.billed_kwh);
  const obs::MetricId latency =
      metrics.histogram("fleet.decision_latency_s", 0.0, 120.0, 48);
  for (const double sample : result.central.decision_latency_s.samples())
    metrics.observe(latency, sample);
}

/// Canonical end-state summary: one line per station plus the central
/// totals. CRC-32 of this text is the run digest the determinism CI job
/// compares across same-seed reruns.
std::uint32_t end_state_digest(const std::vector<ChargePoint>& stations,
                               const CentralSystem& central,
                               const FleetResult& result) {
  std::ostringstream out;
  for (const ChargePoint& cp : stations) {
    const StationStats& s = cp.stats();
    out << cp.index() << ' ' << to_string(cp.state()) << ' '
        << config::format_double(cp.draw_a()) << ' '
        << config::format_double(s.energy_delivered_kwh) << ' ' << s.arrivals
        << ' ' << s.sessions_completed << ' ' << s.dead_letters << ' '
        << cp.retry_queue().delivered() << '\n';
  }
  out << "central " << central.stats().stops << ' '
      << config::format_double(central.stats().billed_kwh) << ' '
      << result.grid_violations << ' '
      << config::format_double(result.peak_draw_kw) << '\n';
  const std::string text = out.str();
  return util::crc32_ieee(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

}  // namespace

FleetResult run_fleet(const config::FleetSpec& spec, int /*jobs*/,
                      obs::MetricsRegistry* metrics) {
  spec.validate();

  const auto n = static_cast<std::uint32_t>(spec.stations);
  const faults::GridFaultTimeline timeline = build_timeline(spec);
  const security::Key master = derive_master(spec.seed);

  StationConfig station_config;
  station_config.max_current_a = spec.station_max_current_a;
  station_config.min_current_a = spec.station_min_current_a;
  station_config.safe_current_a = spec.station_safe_current_a;
  station_config.voltage_v = spec.station_voltage_v;
  station_config.heartbeat_period_s = spec.heartbeat_period_s;
  station_config.lease_s = spec.heartbeat_lease_s;
  station_config.arrival_rate_per_h = spec.arrival_rate_per_station_per_h;
  station_config.energy_min_kwh = spec.session_energy_min_kwh;
  station_config.energy_max_kwh = spec.session_energy_max_kwh;
  station_config.meter_period_s = spec.meter_period_s;
  station_config.loss_probability = spec.msg_loss_probability;
  station_config.retry.max_attempts =
      static_cast<std::uint32_t>(spec.retry_max_attempts);
  station_config.retry.timeout_s = spec.retry_timeout_s;
  station_config.retry.backoff_base_s = spec.retry_backoff_base_s;
  station_config.retry.backoff_cap_s = spec.retry_backoff_cap_s;
  station_config.retry.jitter = spec.retry_jitter;

  CentralConfig central_config;
  central_config.station_count = n;
  central_config.voltage_v = spec.station_voltage_v;
  central_config.max_current_a = spec.station_max_current_a;
  central_config.min_current_a = spec.station_min_current_a;
  central_config.safe_current_a = spec.station_safe_current_a;
  central_config.lease_s = spec.heartbeat_lease_s;
  central_config.capacity_kw = spec.grid_capacity_kw;
  CentralSystem central(central_config, master);

  std::vector<ChargePoint> stations;
  stations.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    security::Key credential = station_credential(master, i);
    if (i < spec.rogue_stations) credential[0] ^= 0x5A;  // corrupted provisioning
    stations.emplace_back(i, station_config, std::move(credential),
                          spec.seed + 0x9e3779b97f4a7c15ULL * (i + 1));
  }

  FleetResult result;
  result.name = spec.name;
  result.station_count = spec.stations;
  result.seed = spec.seed;
  result.sim_hours = spec.sim_hours;
  result.ticks = static_cast<std::uint64_t>(
      std::llround(spec.sim_hours * 3600.0 / spec.tick_s));
  if (result.ticks == 0) result.ticks = 1;
  result.min_headroom_kw = spec.grid_capacity_kw;

  std::vector<Message> outbox;
  std::vector<bool> reachable(n, true);
  double next_rebalance_s = 0.0;
  double prev_t = 0.0;
  double capacity_kw = spec.grid_capacity_kw;

  for (std::uint64_t tick = 0; tick < result.ticks; ++tick) {
    const double t = static_cast<double>(tick) * spec.tick_s;

    // (1) Grid state for this tick, straight off the immutable timeline.
    capacity_kw = spec.grid_capacity_kw * timeline.capacity_scale(t);
    bool island = false;
    for (std::uint64_t feeder = 0; feeder < spec.feeders; ++feeder)
      island = island || timeline.feeder_partitioned(feeder, t);
    for (std::uint32_t i = 0; i < n; ++i)
      reachable[i] = !timeline.station_blacked_out(i, t) &&
                     !timeline.feeder_partitioned(i % spec.feeders, t);

    // (2) Rebalance on cadence — or immediately when the grid changed, so a
    // capacity drop is answered within one tick, not one period.
    if (tick == 0 || t >= next_rebalance_s || timeline.changed_between(prev_t, t)) {
      const std::vector<double> grants =
          central.rebalance(t, capacity_kw, reachable, island);
      for (std::uint32_t i = 0; i < n; ++i)
        if (grants[i] >= 0.0 && reachable[i]) stations[i].set_allocated(grants[i], t);
      next_rebalance_s = t + spec.rebalance_period_s;
    }
    prev_t = t;

    // (3) Advance each station, then fold its messages through the central
    // system, in station-index order. advance() reads only the station's own
    // state and reachable[i], and deliver() writes only station i, so this
    // equals advancing every station first and folding after.
    for (std::uint32_t i = 0; i < n; ++i) {
      outbox.clear();
      stations[i].advance(t, spec.tick_s, reachable[i], outbox);
      for (const Message& msg : outbox) stations[i].deliver(central.process(msg, t), t);
    }

    // (4) Grid-safety invariant and per-tick observables.
    double draw_a = 0.0;
    std::uint32_t throttled = 0;
    for (const ChargePoint& cp : stations) {
      draw_a += cp.draw_a();
      if (cp.throttled()) ++throttled;
    }
    const double draw_kw = draw_a * spec.station_voltage_v / 1000.0;
    if (draw_kw > capacity_kw + 1e-6) ++result.grid_violations;
    result.peak_draw_kw = std::max(result.peak_draw_kw, draw_kw);
    result.min_headroom_kw = std::min(result.min_headroom_kw, capacity_kw - draw_kw);
    result.throttled_peak = std::max(result.throttled_peak, throttled);
    ++result.mode_ticks[static_cast<std::size_t>(central.mode())];
  }

  for (const ChargePoint& cp : stations) {
    fold_station_stats(result.stations, cp.stats());
    result.messages_enqueued += cp.retry_queue().enqueued();
    result.messages_attempts += cp.retry_queue().attempts();
    result.messages_delivered += cp.retry_queue().delivered();
    result.messages_retried += cp.retry_queue().retries();
    result.messages_dead_lettered += cp.retry_queue().dead_letters();
    result.retry_pending_end += cp.retry_queue().pending();
    result.journal_pending_end += cp.journal_size();
  }
  result.final_mode = central.mode();
  result.final_capacity_kw = capacity_kw;
  result.open_transactions_end = central.open_transactions();
  result.central = central.stats();
  result.digest = end_state_digest(stations, central, result);

  if (metrics != nullptr) record_metrics(result, *metrics);
  return result;
}

namespace {

void write_double(std::ostream& out, double value) {
  out << config::format_double(value);
}

}  // namespace

void write_fleet_json(const FleetResult& result, std::ostream& out) {
  char digest[16];
  std::snprintf(digest, sizeof digest, "%08x", result.digest);
  out << "{\"fleet\":\"" << util::json_escape(result.name)
      << "\",\"stations\":" << result.station_count
      << ",\"seed\":" << result.seed << ",\"ticks\":" << result.ticks
      << ",\"sim_hours\":";
  write_double(out, result.sim_hours);
  out << ",\"final_mode\":\"" << to_string(result.final_mode) << "\",\"digest\":\""
      << digest << "\",";

  out << "\"grid\":{\"violations\":" << result.grid_violations << ",\"peak_draw_kw\":";
  write_double(out, result.peak_draw_kw);
  out << ",\"min_headroom_kw\":";
  write_double(out, result.min_headroom_kw);
  out << ",\"final_capacity_kw\":";
  write_double(out, result.final_capacity_kw);
  out << ",\"mode_ticks\":{\"normal\":" << result.mode_ticks[0]
      << ",\"constrained\":" << result.mode_ticks[1]
      << ",\"shed_load\":" << result.mode_ticks[2]
      << ",\"island\":" << result.mode_ticks[3] << "}},";

  const StationStats& s = result.stations;
  out << "\"sessions\":{\"arrivals\":" << s.arrivals
      << ",\"started\":" << s.sessions_started
      << ",\"completed\":" << s.sessions_completed
      << ",\"rejected\":" << s.sessions_rejected
      << ",\"abandoned\":" << s.sessions_abandoned
      << ",\"open_at_end\":" << result.open_transactions_end
      << ",\"energy_delivered_kwh\":";
  write_double(out, s.energy_delivered_kwh);
  out << ",\"billed_kwh\":";
  write_double(out, result.central.billed_kwh);
  out << "},";

  const util::SampleSeries& lat = result.central.decision_latency_s;
  out << "\"control\":{\"enqueued\":" << result.messages_enqueued
      << ",\"attempts\":" << result.messages_attempts
      << ",\"delivered\":" << result.messages_delivered
      << ",\"retries\":" << result.messages_retried
      << ",\"dead_letters\":" << result.messages_dead_lettered
      << ",\"redelivered\":" << s.redelivered
      << ",\"retry_pending_end\":" << result.retry_pending_end
      << ",\"journal_pending_end\":" << result.journal_pending_end
      << ",\"latency_s\":{\"count\":" << lat.count() << ",\"mean\":";
  write_double(out, lat.mean());
  out << ",\"p50\":";
  write_double(out, lat.percentile(50.0));
  out << ",\"p95\":";
  write_double(out, lat.percentile(95.0));
  out << ",\"p99\":";
  write_double(out, lat.percentile(99.0));
  out << ",\"max\":";
  write_double(out, lat.max());
  out << "}},";

  out << "\"liveness\":{\"lease_expiries\":" << s.lease_expiries
      << ",\"reconnects\":" << s.reconnects
      << ",\"throttle_ticks\":" << s.throttle_ticks
      << ",\"throttled_peak\":" << result.throttled_peak
      << ",\"suspend_events\":" << s.suspend_events
      << ",\"stale_reservations\":" << result.central.stale_reservations
      << ",\"shed_suspensions\":" << result.central.shed_suspensions
      << ",\"rebalances\":" << result.central.rebalances << "},";

  out << "\"security\":{\"challenges\":" << result.central.authorize_challenges
      << ",\"accepted\":" << result.central.authorize_accepted
      << ",\"rejected\":" << result.central.authorize_rejected << "}}\n";
}

std::string fleet_report_json(const FleetResult& result) {
  std::ostringstream out;
  write_fleet_json(result, out);
  return out.str();
}

}  // namespace ev::fleet

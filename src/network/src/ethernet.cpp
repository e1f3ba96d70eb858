#include "ev/network/ethernet.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ev::network {

EthernetSwitch::EthernetSwitch(sim::Simulator& sim, std::string name, std::size_t port_count,
                               double bit_rate_bps, double forwarding_delay_s)
    : Bus(sim, std::move(name), bit_rate_bps),
      egress_(port_count),
      forwarding_delay_s_(forwarding_delay_s) {
  if (port_count == 0) throw std::invalid_argument("EthernetSwitch: need at least one port");
}

void EthernetSwitch::attach(NodeId node, std::size_t port) {
  if (port >= egress_.size()) throw std::out_of_range("EthernetSwitch: port out of range");
  node_port_[node] = port;
}

void EthernetSwitch::add_route(std::uint32_t id, EthRoute route) {
  for (std::size_t p : route.egress_ports)
    if (p >= egress_.size()) throw std::out_of_range("EthernetSwitch: route port out of range");
  routes_[id] = std::move(route);
}

void EthernetSwitch::enable_cbs(std::size_t port, double idle_slope_fraction) {
  Egress& e = egress_.at(port);
  e.cbs_enabled = true;
  e.idle_slope = idle_slope_fraction * bit_rate();
  e.credit_bits = 0.0;
  e.credit_updated = simulator().now();
}

void EthernetSwitch::set_gate_schedule(std::size_t port, GateSchedule schedule) {
  if (schedule.cycle_s <= 0.0)
    throw std::invalid_argument("EthernetSwitch: gate cycle must be positive");
  egress_.at(port).gates = std::move(schedule);
}

std::size_t EthernetSwitch::frame_bits(std::size_t payload_bytes) noexcept {
  const std::size_t payload = std::max<std::size_t>(payload_bytes, 46);
  return (8 + 14 + payload + 4 + 12) * 8;  // preamble + header + data + FCS + IFG
}

bool EthernetSwitch::do_send(Frame frame) {
  const auto port_it = node_port_.find(frame.source);
  if (port_it == node_port_.end()) return false;
  const auto route_it = routes_.find(frame.id);
  if (route_it == routes_.end()) return false;

  // Uplink transmission (node -> switch) plus store-and-forward processing.
  const sim::Time uplink = tx_time(frame_bits(frame.payload_size));
  account_busy(uplink);
  const EthRoute& route = route_it->second;
  const EthClass cls = route.traffic_class;
  simulator().schedule_in(
      uplink + sim::Time::seconds(forwarding_delay_s_),
      [this, frame = std::move(frame), ports = route.egress_ports, cls]() mutable {
        for (std::size_t i = 0; i < ports.size(); ++i)
          enqueue_egress(ports[i], frame, cls);
      });
  return true;
}

void EthernetSwitch::enqueue_egress(std::size_t port, Frame frame, EthClass cls) {
  Egress& e = egress_[port];
  e.queues[static_cast<std::size_t>(cls)].push_back(std::move(frame));
  service_port(port);
}

void EthernetSwitch::update_credit(Egress& e, sim::Time now) const {
  if (!e.cbs_enabled) return;
  const double dt = (now - e.credit_updated).to_seconds();
  if (dt <= 0.0) return;
  const auto& qa = e.queues[static_cast<std::size_t>(EthClass::kAvbClassA)];
  // Credit accrues at idle slope while frames wait or while recovering from
  // negative credit; it resets toward zero when the queue is idle.
  if (!qa.empty() || e.credit_bits < 0.0)
    e.credit_bits = std::min(e.credit_bits + e.idle_slope * dt, 0.75 * e.idle_slope * 0.001);
  else
    e.credit_bits = std::min(e.credit_bits, 0.0);
  e.credit_updated = now;
}

bool EthernetSwitch::gate_allows(const Egress& e, int prio, sim::Time now, sim::Time tx,
                                 sim::Time* next_try) const {
  if (!e.gates) return true;
  const GateSchedule& gs = *e.gates;
  const sim::Time cycle = sim::Time::seconds(gs.cycle_s);
  const sim::Time phase = now % cycle;
  const bool is_tt = prio == static_cast<int>(EthClass::kTimeTriggered);
  sim::Time best_next = sim::Time::max();
  for (int lap = 0; lap < 2; ++lap) {
    const sim::Time lap_offset = cycle * lap;
    for (const GateWindow& w : gs.windows) {
      if (w.tt_only != is_tt) continue;
      const sim::Time start = sim::Time::seconds(w.offset_s) + lap_offset;
      const sim::Time end = start + sim::Time::seconds(w.duration_s);
      if (phase >= start && phase + tx <= end) return true;  // fits now (guard band)
      if (start > phase) best_next = std::min(best_next, now + (start - phase));
    }
  }
  if (next_try && best_next != sim::Time::max()) *next_try = std::min(*next_try, best_next);
  return false;
}

void EthernetSwitch::service_port(std::size_t port) {
  Egress& e = egress_[port];
  if (e.busy) return;
  const sim::Time now = simulator().now();
  update_credit(e, now);

  sim::Time next_try = sim::Time::max();
  for (int prio = 7; prio >= 0; --prio) {
    auto& q = e.queues[static_cast<std::size_t>(prio)];
    if (q.empty()) continue;
    const sim::Time tx = tx_time(frame_bits(q.front().payload_size));
    if (!gate_allows(e, prio, now, tx, &next_try)) continue;
    if (e.cbs_enabled && prio == static_cast<int>(EthClass::kAvbClassA) &&
        e.credit_bits < 0.0) {
      // Credit recovers at idle slope; retry when it reaches zero. Round the
      // wait up to one microsecond so a vanishing credit deficit can never
      // produce a zero-delay retry loop at a single timestamp.
      const double wait_s = std::max(-e.credit_bits / e.idle_slope, 1e-6);
      next_try = std::min(next_try, now + sim::Time::seconds(wait_s));
      continue;
    }
    Frame frame = std::move(q.front());
    q.pop_front();
    e.busy = true;
    if (e.cbs_enabled && prio == static_cast<int>(EthClass::kAvbClassA)) {
      // Send slope: credit drains by the non-reserved rate during service.
      e.credit_bits -= (bit_rate() - e.idle_slope) * tx.to_seconds();
      e.credit_updated = now + tx;
    }
    account_busy(tx);
    simulator().schedule_in(tx, [this, port, frame = std::move(frame)]() mutable {
      egress_[port].busy = false;
      deliver(frame);
      service_port(port);
    });
    return;
  }
  // Nothing eligible now: re-arm at the earliest gate/credit opportunity.
  if (next_try != sim::Time::max() && e.retry_event == 0) {
    e.retry_event = simulator().schedule_at(next_try, [this, port] {
      egress_[port].retry_event = 0;
      service_port(port);
    });
  }
}

std::size_t EthernetSwitch::egress_depth(std::size_t port) const {
  const Egress& e = egress_.at(port);
  std::size_t n = 0;
  for (const auto& q : e.queues) n += q.size();
  return n;
}

}  // namespace ev::network

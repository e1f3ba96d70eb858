#include "passes.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "ev/analysis/prob.h"
#include "ev/config/scenario.h"
#include "ev/network/can.h"
#include "ev/network/flexray.h"
#include "ev/network/lin.h"
#include "ev/util/math.h"

namespace ev::analysis::passes {
namespace {

constexpr double kSecondsToUs = 1e6;

std::string hex_id(std::uint32_t id) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%03x", id);
  return buf;
}

std::string frame_subject(const VehicleModel& model, const FrameModel& frame) {
  return model.buses[frame.bus].scenario_name + "/" + hex_id(frame.id);
}

double jitter_of(const VehicleModel& model, const FrameModel& frame,
                 const std::vector<FrameBound>& bounds) {
  if (!frame.routed) return 0.0;
  return bounds[frame.source_frame].e2e_s + model.gateway_delay_s;
}

// --------------------------------------------------------------- per bus ----

BusOutcome compute_can(const VehicleModel& model, std::size_t bus_idx,
                       const std::vector<std::size_t>& on_bus,
                       std::vector<FrameBound>& bounds) {
  const BusModel& bus = model.buses[bus_idx];
  BusOutcome out;
  std::vector<network::CanMessageSpec> specs;
  std::map<std::uint32_t, std::size_t> by_id;
  for (const std::size_t f : on_bus) {
    const FrameModel& frame = model.frames[f];
    if (frame.payload_bytes > 8) {
      out.issues.push_back({BusIssueKind::kCanPayload, f,
                            static_cast<double>(frame.payload_bytes)});
      continue;
    }
    network::CanMessageSpec spec;
    spec.id = frame.id;
    spec.payload_bytes = frame.payload_bytes;
    spec.period_s = frame.period_s;
    spec.jitter_s = jitter_of(model, frame, bounds);
    out.load += static_cast<double>(network::CanBus::frame_bits(frame.payload_bytes)) /
                bus.bit_rate_bps / frame.period_s;
    by_id.emplace(frame.id, f);
    specs.push_back(spec);
  }
  out.overload_value = out.load;
  out.overloaded = out.load > 1.0;
  for (const network::CanResponseTime& response :
       network::can_response_times(specs, bus.bit_rate_bps)) {
    const auto it = by_id.find(response.id);
    if (it == by_id.end()) continue;
    // The CAN bound already includes the release jitter, i.e. the upstream
    // leg for routed frames: it is the end-to-end figure directly.
    bounds[it->second].e2e_s = response.worst_case_s;
    bounds[it->second].valid = response.schedulable;
    if (!response.schedulable)
      out.issues.push_back({BusIssueKind::kCanUnschedulable, it->second,
                            response.worst_case_s * kSecondsToUs});
  }
  return out;
}

BusOutcome compute_lin(const VehicleModel& model, std::size_t bus_idx,
                       const std::vector<std::size_t>& on_bus,
                       std::vector<FrameBound>& bounds) {
  const BusModel& bus = model.buses[bus_idx];
  BusOutcome out;
  for (const std::size_t f : on_bus) {
    const FrameModel& frame = model.frames[f];
    const bool has_slot =
        std::find(bus.lin_slot_ids.begin(), bus.lin_slot_ids.end(), frame.id) !=
        bus.lin_slot_ids.end();
    if (!has_slot) {
      out.issues.push_back({BusIssueKind::kLinNoSlot, f, 0.0});
      continue;
    }
    // State semantics: worst case waits one full table cycle for the slot,
    // then the slot time covers the transmission.
    bounds[f].e2e_s =
        jitter_of(model, frame, bounds) + bus.lin_cycle_s + bus.lin_slot_time_s;
    bounds[f].valid = true;
    const double period_eff = std::max(frame.period_s, bus.lin_cycle_s);
    out.load += static_cast<double>(network::LinBus::frame_bits(frame.payload_bytes)) /
                bus.bit_rate_bps / period_eff;
    if (frame.period_s < bus.lin_cycle_s)
      out.issues.push_back(
          {BusIssueKind::kLinOversampled, f, bus.lin_cycle_s * kSecondsToUs});
  }
  out.overload_value = out.load;
  return out;
}

BusOutcome compute_flexray(const VehicleModel& model, std::size_t bus_idx,
                           const std::vector<std::size_t>& on_bus,
                           std::vector<FrameBound>& bounds) {
  const BusModel& bus = model.buses[bus_idx];
  BusOutcome out;

  // Dynamic-segment bookkeeping shared by every dynamic frame on the bus.
  struct Dynamic {
    std::size_t frame = 0;
    double occupied_s = 0.0;
    std::int64_t per_cycle = 1;
  };
  std::vector<Dynamic> dynamics;
  for (const std::size_t f : on_bus) {
    const FrameModel& frame = model.frames[f];
    if (bus.fr_static_slot.count(frame.id) > 0) {
      const double tx_s =
          static_cast<double>(network::FlexRayBus::frame_bits(frame.payload_bytes)) /
          bus.bit_rate_bps;
      out.load += tx_s / std::max(frame.period_s, bus.fr_cycle_s);
      continue;
    }
    const double tx_s =
        static_cast<double>(network::FlexRayBus::frame_bits(frame.payload_bytes)) /
        bus.bit_rate_bps;
    if (tx_s > bus.fr_dynamic_s) {
      out.issues.push_back(
          {BusIssueKind::kFrDynamicOverflow, f, tx_s * kSecondsToUs});
      continue;
    }
    Dynamic d;
    d.frame = f;
    d.occupied_s = std::ceil(tx_s / bus.fr_minislot_s) * bus.fr_minislot_s;
    d.per_cycle = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(bus.fr_cycle_s / frame.period_s)));
    out.load += tx_s / frame.period_s;
    dynamics.push_back(d);
  }

  double dynamic_demand_s = 0.0;  // minislot time claimed per cycle
  for (const Dynamic& d : dynamics)
    dynamic_demand_s += d.occupied_s * static_cast<double>(d.per_cycle);
  const double extra_cycles =
      dynamic_demand_s > bus.fr_dynamic_s
          ? std::ceil(dynamic_demand_s / bus.fr_dynamic_s) - 1.0
          : 0.0;
  out.overload_value =
      bus.fr_dynamic_s > 0.0 ? dynamic_demand_s / bus.fr_dynamic_s : 0.0;
  out.overloaded = out.overload_value > 1.0;

  for (const std::size_t f : on_bus) {
    const FrameModel& frame = model.frames[f];
    const auto slot = bus.fr_static_slot.find(frame.id);
    if (slot != bus.fr_static_slot.end()) {
      // State-buffered TDMA: worst case misses the current cycle, then the
      // frame leaves in its fixed slot of the next one.
      bounds[f].e2e_s =
          jitter_of(model, frame, bounds) + bus.fr_cycle_s +
          static_cast<double>(slot->second + 1) * bus.fr_slot_s;
      bounds[f].valid = true;
      if (frame.period_s < bus.fr_cycle_s)
        out.issues.push_back(
            {BusIssueKind::kFrOversampled, f, bus.fr_cycle_s * kSecondsToUs});
      continue;
    }
    const auto dyn = std::find_if(dynamics.begin(), dynamics.end(),
                                  [f](const Dynamic& d) { return d.frame == f; });
    if (dyn == dynamics.end()) continue;  // rejected above
    const double tx_s =
        static_cast<double>(network::FlexRayBus::frame_bits(frame.payload_bytes)) /
        bus.bit_rate_bps;
    // Minislot arbitration serves ascending ids: lower ids (and earlier
    // instances of this id) claim their minislots first.
    double interference_s = dyn->occupied_s * static_cast<double>(dyn->per_cycle - 1);
    for (const Dynamic& other : dynamics)
      if (model.frames[other.frame].id < frame.id)
        interference_s += other.occupied_s * static_cast<double>(other.per_cycle);
    bounds[f].e2e_s = jitter_of(model, frame, bounds) +
                      (1.0 + extra_cycles) * bus.fr_cycle_s +
                      bus.fr_static_segment_s + interference_s + tx_s;
    bounds[f].valid = true;
  }
  return out;
}

BusOutcome compute_most(const VehicleModel& model, std::size_t bus_idx,
                        const std::vector<std::size_t>& on_bus,
                        std::vector<FrameBound>& bounds) {
  const BusModel& bus = model.buses[bus_idx];
  BusOutcome out;
  const auto is_sync = [&bus](std::uint32_t id) {
    return std::find(bus.most_sync_ids.begin(), bus.most_sync_ids.end(), id) !=
           bus.most_sync_ids.end();
  };
  // FCFS asynchronous region: at most one outstanding frame per id queues
  // ahead, so the backlog a new frame can find is the sum of all async
  // payloads on the bus.
  double async_backlog_bytes = 0.0;
  double async_demand = 0.0;  // bytes/s
  for (const std::size_t f : on_bus) {
    const FrameModel& frame = model.frames[f];
    if (is_sync(frame.id)) continue;
    async_backlog_bytes += static_cast<double>(frame.payload_bytes);
    async_demand += static_cast<double>(frame.payload_bytes) / frame.period_s;
  }
  const double budget_rate =
      static_cast<double>(bus.most_async_budget_bytes) / bus.most_frame_period_s;
  out.load = budget_rate > 0.0 ? async_demand / budget_rate : 0.0;
  out.overload_value = out.load;
  out.overloaded = out.load > 1.0;
  for (const std::size_t f : on_bus) {
    const FrameModel& frame = model.frames[f];
    if (is_sync(frame.id)) {
      // Isochronous pipeline: delivery exactly one frame period after send.
      bounds[f].e2e_s = jitter_of(model, frame, bounds) + bus.most_frame_period_s;
      bounds[f].valid = true;
      continue;
    }
    const double frames_needed =
        bus.most_async_budget_bytes > 0
            ? std::ceil(async_backlog_bytes /
                        static_cast<double>(bus.most_async_budget_bytes))
            : 1.0;
    // +1 frame period aligns to the ring clock; the last fragment lands one
    // period after the frame that carried it.
    bounds[f].e2e_s = jitter_of(model, frame, bounds) +
                      (frames_needed + 1.0) * bus.most_frame_period_s;
    bounds[f].valid = true;
  }
  return out;
}

}  // namespace

ProbOutcome compute_prob_bus(const VehicleModel& model, std::size_t bus_idx,
                             const std::vector<std::size_t>& on_bus,
                             const std::vector<FrameBound>& bounds,
                             const BusErrorModel& error_model) {
  ProbOutcome out;
  out.model = error_model;
  const BusModel& bus = model.buses[bus_idx];
  if (!error_model.armed() || bus.protocol != Protocol::kCan) return out;

  const double tau_bit = 1.0 / bus.bit_rate_bps;
  // Same message set, order, and jitter as compute_can — the k = 0 rung of
  // the ladder is the deterministic analysis, bit for bit.
  std::vector<network::CanMessageSpec> specs;
  std::vector<std::size_t> spec_frame;
  std::map<std::uint32_t, std::size_t> by_id;  // wire id -> spec index
  double max_tx_s = 0.0;
  double min_tx_s = std::numeric_limits<double>::infinity();
  for (const std::size_t f : on_bus) {
    const FrameModel& frame = model.frames[f];
    if (frame.payload_bytes > 8) continue;  // carries can.payload_size already
    network::CanMessageSpec spec;
    spec.id = frame.id;
    spec.payload_bytes = frame.payload_bytes;
    spec.period_s = frame.period_s;
    spec.jitter_s = jitter_of(model, frame, bounds);
    const double tx_s =
        static_cast<double>(network::CanBus::frame_bits(frame.payload_bytes)) * tau_bit;
    max_tx_s = std::max(max_tx_s, tx_s);
    min_tx_s = std::min(min_tx_s, tx_s);
    by_id.emplace(spec.id, specs.size());
    spec_frame.push_back(f);
    specs.push_back(spec);
  }
  if (specs.empty()) return out;

  // Per-error recovery overhead: the 31-bit error flag plus the
  // retransmission of the longest frame on the bus (Broster's O).
  const double overhead_s =
      static_cast<double>(network::CanBus::kErrorRecoveryBits) * tau_bit + max_tx_s;

  // Walk the R(k) ladder upward; R(k) is monotone in k, so each frame's
  // k_max is the last rung it survives. The cap bounds the walk for frames
  // with huge slack — P(N > cap) still upper-bounds their miss probability.
  constexpr int kMaxTolerable = 64;
  std::vector<int> kmax(specs.size(), -1);
  std::vector<double> r_kmax(specs.size(), 0.0);
  std::vector<double> r_zero(specs.size(), 0.0);
  for (int k = 0; k <= kMaxTolerable; ++k) {
    bool any_alive = false;
    for (const network::CanResponseTime& response :
         network::can_response_times(specs, bus.bit_rate_bps, overhead_s, k)) {
      const std::size_t s = by_id.find(response.id)->second;
      if (k == 0) r_zero[s] = response.worst_case_s;
      if (response.schedulable && kmax[s] == k - 1) {
        kmax[s] = k;
        r_kmax[s] = response.worst_case_s;
        any_alive = true;
      }
    }
    if (!any_alive) break;
  }

  for (std::size_t s = 0; s < specs.size(); ++s) {
    FrameMissBound fmb;
    fmb.frame = spec_frame[s];
    fmb.tolerable_errors = kmax[s];
    if (kmax[s] < 0) {
      // Already unschedulable with zero errors: the deterministic pass
      // reports rta.unschedulable, the miss probability is certain.
      fmb.response_at_kmax_s = r_zero[s];
      fmb.miss_probability = 1.0;
    } else {
      fmb.response_at_kmax_s = r_kmax[s];
      // Errors able to disturb one instance fall inside its level-i window:
      // release jitter + deadline, padded by one recovery to cover a
      // blocking frame already on the wire. Over-covering keeps the bound.
      const double window_s = specs[s].jitter_s + specs[s].period_s + overhead_s;
      const double mean = error_model.poisson_rate_per_s * window_s;
      int attempts = 0;
      if (error_model.per_attempt_prob > 0.0)
        // Attempts are serialized on the bus and each occupies at least the
        // shortest frame, so this many fit the window (plus a straddler).
        attempts = static_cast<int>(window_s / min_tx_s) + 1;
      fmb.miss_probability =
          combined_tail_above(mean, attempts, error_model.per_attempt_prob, kmax[s]);
    }
    out.frames.push_back(fmb);
  }
  return out;
}

BusOutcome compute_bus(const VehicleModel& model, std::size_t bus,
                       const std::vector<std::size_t>& on_bus,
                       std::vector<FrameBound>& bounds) {
  switch (model.buses[bus].protocol) {
    case Protocol::kLin: return compute_lin(model, bus, on_bus, bounds);
    case Protocol::kCan: return compute_can(model, bus, on_bus, bounds);
    case Protocol::kMost: return compute_most(model, bus, on_bus, bounds);
    case Protocol::kFlexRay: return compute_flexray(model, bus, on_bus, bounds);
  }
  return {};
}

EcuOutcome compute_ecu(const VehicleModel& model) {
  const core::CockpitAppModel& app = model.app;
  EcuOutcome out;
  for (const core::PartitionModel& partition : app.partitions)
    out.budget_sum += partition.budget_us;
  out.frame_overflow = out.budget_sum > app.major_frame_us;
  if (!out.frame_overflow) {
    // The dispatcher runs windows back-to-back in creation order: model each
    // window as a fixed-priority task (priority = position) with the major
    // frame as its period. Responses bound the window-completion offset.
    std::vector<scheduling::FpTask> tasks;
    for (std::size_t i = 0; i < app.partitions.size(); ++i) {
      scheduling::FpTask task;
      task.name = app.partitions[i].name;
      task.priority = static_cast<int>(i);
      task.period_us = app.major_frame_us;
      task.wcet_us = app.partitions[i].budget_us;
      tasks.push_back(std::move(task));
    }
    out.windows = scheduling::fp_response_times(tasks);
  }
  for (const core::PartitionModel& partition : app.partitions) {
    std::int64_t demand = 0;
    for (const core::RunnableModel& runnable : partition.runnables) {
      const std::int64_t activations =
          runnable.period_us > 0
              ? std::max<std::int64_t>(
                    1, util::ceil_div(app.major_frame_us, runnable.period_us))
              : 1;
      demand += runnable.wcet_us * activations;
    }
    out.partition_demand.push_back(demand);
  }
  return out;
}

std::vector<Diagnostic> compute_wiring(const VehicleModel& model) {
  Report report;
  const std::string& ecu = model.app.ecu_name;
  for (const core::TopicModel& topic : model.app.topics) {
    if (topic.subscribers.empty())
      report.add(Severity::kWarning, "pubsub.orphan_topic", ecu + "/" + topic.name,
                 "topic is published but nobody subscribes — dead traffic");
    if (topic.publishers.empty())
      report.add(Severity::kWarning, "pubsub.unfed_topic", ecu + "/" + topic.name,
                 "topic has subscribers but no publisher — they starve");
  }

  if (!model.health_enabled)
    for (const core::PartitionModel& partition : model.app.partitions)
      report.add(Severity::kWarning, "health.uncovered_partition",
                 ecu + "/" + partition.name,
                 "no heartbeat coverage: the health subsystem is disabled, a "
                 "hang or crash goes undetected");

  for (std::size_t i = 0; i < model.fault_events.size(); ++i) {
    const config::FaultEventSpec& event = model.fault_events[i];
    const std::string subject = "fault[" + std::to_string(i) + "]";
    switch (event.kind) {
      case config::FaultKind::kBusDrop:
      case config::FaultKind::kBusCorrupt:
      case config::FaultKind::kBusOff:
      case config::FaultKind::kBusBabble: {
        const bool known = std::any_of(
            model.buses.begin(), model.buses.end(),
            [&event](const BusModel& bus) { return bus.scenario_name == event.target; });
        if (!known)
          report.add(Severity::kError, "fault.unknown_target", subject,
                     config::to_string(event.kind) + " targets unknown bus '" +
                         event.target + "'");
        break;
      }
      case config::FaultKind::kPartitionCrash:
      case config::FaultKind::kPartitionHang: {
        const bool known =
            std::any_of(model.app.partitions.begin(), model.app.partitions.end(),
                        [&event](const core::PartitionModel& partition) {
                          return partition.name == event.target;
                        });
        if (!known)
          report.add(Severity::kError, "fault.unknown_target", subject,
                     config::to_string(event.kind) +
                         " targets unknown cockpit partition '" + event.target +
                         "'");
        break;
      }
      case config::FaultKind::kSensorStuck: {
        const std::optional<std::uint64_t> cell = config::parse_u64(event.target);
        if (!cell || *cell >= model.cell_count)
          report.add(Severity::kError, "fault.unknown_target", subject,
                     "sensor fault targets cell '" + event.target +
                         "' outside the pack (" +
                         std::to_string(model.cell_count) + " cells)",
                     static_cast<double>(model.cell_count));
        break;
      }
      case config::FaultKind::kBusErrorRate:
      case config::FaultKind::kBusErrorProb: {
        const auto bus_it = std::find_if(
            model.buses.begin(), model.buses.end(),
            [&event](const BusModel& bus) { return bus.scenario_name == event.target; });
        if (bus_it == model.buses.end())
          report.add(Severity::kError, "fault.unknown_target", subject,
                     config::to_string(event.kind) + " targets unknown bus '" +
                         event.target + "'");
        else if (bus_it->protocol != Protocol::kCan)
          report.add(Severity::kError, "prob.unsupported_target", subject,
                     config::to_string(event.kind) + " targets " +
                         to_string(bus_it->protocol) + " bus '" + event.target +
                         "' — the stochastic error model covers CAN only");
        break;
      }
    }
  }

  for (const RouteModel& route : model.routes) {
    const bool fed = std::any_of(
        model.frames.begin(), model.frames.end(), [&route](const FrameModel& frame) {
          return !frame.routed && frame.bus == route.from_bus &&
                 frame.id == route.match_id;
        });
    if (!fed)
      report.add(Severity::kWarning, "gw.unfed_route",
                 "central-gateway/" + hex_id(route.match_id),
                 "gateway route from " + model.buses[route.from_bus].scenario_name +
                     " matches an id no source ever publishes");
  }
  return std::move(report.diagnostics);
}

void render_bus(const VehicleModel& model, std::size_t bus_idx,
                const BusOutcome& outcome, Report& report) {
  const BusModel& bus = model.buses[bus_idx];
  if (bus.protocol == Protocol::kMost) {
    report.add(Severity::kInfo, "bus.load", bus.scenario_name,
               "offered load " + config::format_double(outcome.load) +
                   " of the asynchronous-region capacity",
               outcome.load);
    if (outcome.overloaded)
      report.add(Severity::kError, "bus.overload", bus.scenario_name,
                 "asynchronous demand exceeds the per-frame byte budget — "
                 "the packet queue diverges",
                 outcome.overload_value);
  } else {
    report.add(Severity::kInfo, "bus.load", bus.scenario_name,
               "offered load " + config::format_double(outcome.load) +
                   " of the bus capacity",
               outcome.load);
    if (outcome.overloaded) {
      if (bus.protocol == Protocol::kFlexRay)
        report.add(Severity::kError, "bus.overload", bus.scenario_name,
                   "dynamic-segment demand exceeds the minislot capacity — "
                   "event frames defer indefinitely",
                   outcome.overload_value);
      else
        report.add(Severity::kError, "bus.overload", bus.scenario_name,
                   "offered load exceeds the bus capacity — queues diverge",
                   outcome.overload_value);
    }
  }
  for (const BusIssue& issue : outcome.issues) {
    const FrameModel& frame = model.frames[issue.frame];
    switch (issue.kind) {
      case BusIssueKind::kCanPayload:
        report.add(Severity::kError, "can.payload_size", frame_subject(model, frame),
                   frame.description + ": " + std::to_string(frame.payload_bytes) +
                       "-byte payload exceeds the 8-byte CAN limit",
                   issue.bound);
        break;
      case BusIssueKind::kCanUnschedulable:
        report.add(Severity::kError, "rta.unschedulable", frame_subject(model, frame),
                   frame.description +
                       ": worst-case response exceeds the period (" +
                       config::format_double(frame.period_s * kSecondsToUs) +
                       " us)",
                   issue.bound);
        break;
      case BusIssueKind::kLinNoSlot:
        report.add(Severity::kError, "lin.no_slot", frame_subject(model, frame),
                   frame.description +
                       ": id has no slot in the master schedule table — "
                       "send() fails silently",
                   issue.bound);
        break;
      case BusIssueKind::kLinOversampled:
        report.add(Severity::kWarning, "lin.oversampled", frame_subject(model, frame),
                   frame.description + ": published every " +
                       config::format_double(frame.period_s * kSecondsToUs) +
                       " us but the schedule cycle is " +
                       config::format_double(bus.lin_cycle_s * kSecondsToUs) +
                       " us — intermediate values are overwritten",
                   issue.bound);
        break;
      case BusIssueKind::kFrDynamicOverflow:
        report.add(Severity::kError, "flexray.dynamic_overflow",
                   frame_subject(model, frame),
                   frame.description + ": " + std::to_string(frame.payload_bytes) +
                       "-byte frame does not fit the dynamic segment",
                   issue.bound);
        break;
      case BusIssueKind::kFrOversampled:
        report.add(Severity::kWarning, "flexray.oversampled",
                   frame_subject(model, frame),
                   frame.description + ": published every " +
                       config::format_double(frame.period_s * kSecondsToUs) +
                       " us but the communication cycle is " +
                       config::format_double(bus.fr_cycle_s * kSecondsToUs) +
                       " us — intermediate values are overwritten",
                   issue.bound);
        break;
    }
  }
}

void render_frame_bounds(const VehicleModel& model,
                         const std::vector<std::vector<std::size_t>>& per_bus,
                         const std::vector<FrameBound>& bounds, Report& report) {
  for (std::size_t b = 0; b < model.buses.size(); ++b) {
    double bus_max_s = 0.0;
    for (const std::size_t f : per_bus[b]) {
      if (!bounds[f].valid) continue;
      const FrameModel& frame = model.frames[f];
      report.add(Severity::kInfo, "rta.frame", frame_subject(model, frame),
                 frame.description + ": end-to-end worst case " +
                     config::format_double(bounds[f].e2e_s * kSecondsToUs) +
                     " us",
                 bounds[f].e2e_s * kSecondsToUs);
      bus_max_s = std::max(bus_max_s, bounds[f].e2e_s);
    }
    report.add(Severity::kInfo, "rta.bus", model.buses[b].scenario_name,
               "worst end-to-end frame response " +
                   config::format_double(bus_max_s * kSecondsToUs) + " us",
               bus_max_s * kSecondsToUs);
  }
  report.add(Severity::kInfo, "gw.delay", "central-gateway",
             "store-and-forward processing delay per hop",
             model.gateway_delay_s * kSecondsToUs);
}

void render_ecu(const VehicleModel& model, const EcuOutcome& outcome, Report& report) {
  const core::CockpitAppModel& app = model.app;
  const std::string ecu = app.ecu_name;

  if (outcome.frame_overflow) {
    report.add(Severity::kError, "ecu.frame_overflow", ecu,
               "partition budgets (" + std::to_string(outcome.budget_sum) +
                   " us) exceed the major frame (" +
                   std::to_string(app.major_frame_us) + " us)",
               static_cast<double>(outcome.budget_sum));
  } else {
    for (const scheduling::FpResponse& response : outcome.windows) {
      const std::string subject = ecu + "/" + response.name;
      if (response.schedulable)
        report.add(Severity::kInfo, "rta.partition", subject,
                   "window completes within " +
                       std::to_string(response.response_us) +
                       " us of the frame start",
                   static_cast<double>(response.response_us));
      else
        report.add(Severity::kError, "rta.unschedulable", subject,
                   "partition window cannot complete within the major frame",
                   static_cast<double>(response.response_us));
    }
  }

  std::int64_t window_offset = 0;
  for (std::size_t i = 0; i < app.partitions.size(); ++i) {
    const core::PartitionModel& partition = app.partitions[i];
    const std::string subject = ecu + "/" + partition.name;
    const std::int64_t demand = outcome.partition_demand[i];
    if (demand > partition.budget_us)
      report.add(Severity::kError, "partition.overcommitted", subject,
                 "runnable demand (" + std::to_string(demand) +
                     " us per frame) exceeds the budget (" +
                     std::to_string(partition.budget_us) + " us)",
                 static_cast<double>(demand));
    else if (!outcome.frame_overflow)
      for (const core::RunnableModel& runnable : partition.runnables) {
        // A job released anywhere in the cycle completes no later than one
        // full major frame plus its own window's end offset.
        const std::int64_t bound =
            app.major_frame_us + window_offset + partition.budget_us;
        report.add(Severity::kInfo, "rta.runnable", subject + "/" + runnable.name,
                   "activation-to-completion bound " + std::to_string(bound) +
                       " us",
                   static_cast<double>(bound));
      }
    window_offset += partition.budget_us;
  }

  // Publications buffered between frames are delivered at the first window
  // flush of the next major frame at the latest.
  if (!app.partitions.empty() && !outcome.frame_overflow) {
    const std::int64_t flush_bound =
        app.major_frame_us + app.partitions.front().budget_us;
    for (const core::TopicModel& topic : app.topics)
      report.add(Severity::kInfo, "rta.pubsub", ecu + "/" + topic.name,
                 "publish-to-delivery bound " + std::to_string(flush_bound) +
                     " us (flush at the first window boundary)",
                 static_cast<double>(flush_bound));
  }
}

void render_prob(const VehicleModel& model, std::size_t bus_idx,
                 const ProbOutcome& outcome, Report& report) {
  if (!outcome.model.armed()) return;
  const BusModel& bus = model.buses[bus_idx];
  if (bus.protocol != Protocol::kCan) return;
  report.add(Severity::kInfo, "prob.bus_error", bus.scenario_name,
             "stochastic error model: Poisson rate " +
                 config::format_double(outcome.model.poisson_rate_per_s) +
                 " errors/s, per-attempt probability " +
                 config::format_double(outcome.model.per_attempt_prob),
             outcome.model.poisson_rate_per_s);
  for (const FrameMissBound& fmb : outcome.frames) {
    const FrameModel& frame = model.frames[fmb.frame];
    if (fmb.tolerable_errors < 0) {
      report.add(Severity::kInfo, "prob.frame_miss", frame_subject(model, frame),
                 frame.description +
                     ": deadline-miss probability 1 (unschedulable even "
                     "error-free)",
                 1.0);
      continue;
    }
    report.add(Severity::kInfo, "prob.frame_miss", frame_subject(model, frame),
               frame.description + ": deadline-miss probability <= " +
                   config::format_double(fmb.miss_probability) + " (tolerates " +
                   std::to_string(fmb.tolerable_errors) +
                   " error(s) in the busy window, R(k_max) " +
                   config::format_double(fmb.response_at_kmax_s * kSecondsToUs) +
                   " us)",
               fmb.miss_probability);
  }
}

}  // namespace ev::analysis::passes

#include "ev/analysis/oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "ev/core/cosim.h"
#include "ev/core/subsystems.h"
#include "ev/network/can.h"
#include "ev/obs/metrics.h"
#include "ev/sim/simulator.h"
#include "ev/util/stats.h"

namespace ev::analysis {
namespace {

bool is_bus_fault(config::FaultKind kind) {
  switch (kind) {
    case config::FaultKind::kBusDrop:
    case config::FaultKind::kBusCorrupt:
    case config::FaultKind::kBusOff:
    case config::FaultKind::kBusBabble:
    case config::FaultKind::kBusErrorRate:
    case config::FaultKind::kBusErrorProb:
      return true;
    default:
      return false;
  }
}

bool is_partition_fault(config::FaultKind kind) {
  return kind == config::FaultKind::kPartitionCrash ||
         kind == config::FaultKind::kPartitionHang;
}

}  // namespace

std::vector<BoundCheck> bound_checks(const VehicleModel& model, const Report& report,
                                     core::VehicleSystem& vehicle,
                                     const std::vector<config::FaultEventSpec>& faults) {
  std::vector<BoundCheck> checks;
  auto* obs = vehicle.find_subsystem<core::ObservabilitySubsystem>();
  if (obs == nullptr) return checks;
  const obs::MetricsRegistry& metrics = obs->metrics();

  bool any_bus_fault = false;
  bool any_partition_fault = false;
  std::set<std::size_t> excluded;
  for (const config::FaultEventSpec& fault : faults) {
    if (is_partition_fault(fault.kind)) any_partition_fault = true;
    if (!is_bus_fault(fault.kind)) continue;
    any_bus_fault = true;
    for (std::size_t b = 0; b < model.buses.size(); ++b)
      if (model.buses[b].scenario_name == fault.target) excluded.insert(b);
  }
  // A faulted bus perturbs every bus it routes into (the gateway re-injects
  // late or babbled frames there), transitively.
  for (bool changed = true; changed;) {
    changed = false;
    for (const RouteModel& route : model.routes)
      if (excluded.count(route.from_bus) != 0 && excluded.insert(route.to_bus).second)
        changed = true;
  }

  const auto observe = [&](BoundSurface surface, std::string subject,
                           const std::string& histogram, double bound_us) {
    const obs::MetricId id = metrics.find(histogram);
    if (id == obs::kInvalidId) return;
    const util::RunningStats& stats = metrics.histogram_stats(id);
    if (stats.count() == 0) return;
    checks.push_back(
        BoundCheck{surface, std::move(subject), bound_us, stats.max(), stats.count()});
  };

  for (std::size_t b = 0; b < model.buses.size(); ++b) {
    if (excluded.count(b) != 0) continue;
    const BusModel& bus = model.buses[b];
    if (const Diagnostic* d = report.find("rta.bus", bus.scenario_name))
      observe(BoundSurface::kBusFrame, bus.scenario_name,
              "net." + bus.display_name + ".frame_latency_us", d->bound);
  }
  if (!any_partition_fault) {
    double pubsub_bound = 0.0;
    for (const Diagnostic& d : report.diagnostics)
      if (d.rule_id == "rta.pubsub") pubsub_bound = std::max(pubsub_bound, d.bound);
    if (pubsub_bound > 0.0)
      observe(BoundSurface::kPubSub, model.app.ecu_name + " pub/sub",
              "mw." + model.app.ecu_name + ".pubsub.delivery_latency_us", pubsub_bound);
  }
  if (!any_bus_fault)
    if (const Diagnostic* d = report.find("gw.delay", "central-gateway"))
      observe(BoundSurface::kGatewayHop, "gateway hop",
              "net.gw.central-gateway.hop_latency_us", d->bound);
  return checks;
}

std::vector<std::size_t> armed_can_buses(ProbabilisticCanAnalyzer& analyzer) {
  const VehicleModel& model = analyzer.evaluator().model();
  std::vector<std::size_t> buses;
  for (std::size_t b = 0; b < model.buses.size(); ++b)
    if (analyzer.bus_outcome(b).model.armed() &&
        model.buses[b].protocol == Protocol::kCan)
      buses.push_back(b);
  return buses;
}

std::vector<FrameTally> run_prob_testbed(const VehicleModel& model, std::size_t bus,
                                         const BusErrorModel& error_model,
                                         std::uint64_t seed, double send_s,
                                         double drain_s) {
  const BusModel& bus_model = model.buses[bus];
  sim::Simulator sim;
  network::CanBus can(sim, bus_model.scenario_name, bus_model.bit_rate_bps);

  network::CanErrorModel armed;
  armed.poisson_rate_per_s = error_model.poisson_rate_per_s;
  armed.per_attempt_prob = error_model.per_attempt_prob;
  armed.seed = seed ^ (0x9e3779b97f4a7c15ULL * (bus + 1));
  can.arm_error_model(armed);

  // The frames the analyzer models on this bus, in model order (CAN ids are
  // unique per bus, so deliveries map back by id).
  std::vector<std::size_t> frames;
  std::map<std::uint32_t, std::size_t> slot_of_id;
  for (std::size_t f = 0; f < model.frames.size(); ++f)
    if (model.frames[f].bus == bus && model.frames[f].payload_bytes <= 8) {
      slot_of_id[model.frames[f].id] = frames.size();
      frames.push_back(f);
    }

  std::vector<FrameTally> tallies(frames.size());
  can.subscribe([&](const network::Frame& frame, sim::Time delivered) {
    const auto it = slot_of_id.find(frame.id);
    if (it == slot_of_id.end()) return;
    FrameTally& tally = tallies[it->second];
    ++tally.delivered;
    const double latency_s = (delivered - frame.created).to_seconds();
    if (latency_s > model.frames[frames[it->second]].period_s + 1e-12) ++tally.missed;
  });

  const sim::Time send_until = sim::Time::seconds(send_s);
  for (std::size_t s = 0; s < frames.size(); ++s) {
    const FrameModel& frame = model.frames[frames[s]];
    sim.schedule_periodic(sim::Time{}, sim::Time::seconds(frame.period_s), [&, s] {
      if (sim.now() > send_until) return;
      network::Frame tx;
      tx.id = model.frames[frames[s]].id;
      tx.payload_size = model.frames[frames[s]].payload_bytes;
      if (can.send(tx)) ++tallies[s].sent;
    });
  }
  sim.run_until(send_until + sim::Time::seconds(drain_s));
  return tallies;
}

double hoeffding_tolerance(std::size_t n) {
  if (n == 0) return 1.0;
  return std::sqrt(std::log(1e9) / (2.0 * static_cast<double>(n)));
}

}  // namespace ev::analysis

#include "ev/fuzz/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ev/analysis/analyzer.h"
#include "ev/analysis/oracle.h"
#include "ev/analysis/prob.h"
#include "ev/core/fault_targets.h"
#include "ev/core/scenario.h"
#include "ev/core/subsystems.h"
#include "ev/util/crc.h"
#include "ev/util/json.h"
#include "ev/util/rng.h"
#include "ev/util/parallel_for.h"

namespace ev::fuzz {
namespace {

using analysis::BusModel;
using analysis::FrameMissBound;
using analysis::FrameModel;
using analysis::ProbOutcome;
using analysis::Report;
using analysis::VehicleModel;
using config::FaultKind;
using config::ScenarioSpec;

/// SplitMix64 over (root seed, index): one independent scenario stream per
/// index, identical on every platform.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Coarse rounding keeps generated `.scn` files readable; any double
/// round-trips exactly through format_double, so this is cosmetic only.
double round_to(double v, double step) { return std::round(v / step) * step; }

template <typename T, std::size_t N>
T pick(util::Rng& rng, const T (&options)[N]) {
  return options[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(N) - 1))];
}

/// Draws a kind-valid fault plan against the extracted model: bus faults
/// name real buses (error models CAN only), partition faults name cockpit
/// partitions, sensor faults index real cells.
void generate_faults(util::Rng& rng, const VehicleModel& model, ScenarioSpec& spec) {
  if (!rng.bernoulli(0.55)) return;
  static constexpr const char* kCanBus[] = {"comfort_can", "safety_can"};
  const auto pick_partition = [&] {
    const auto last = static_cast<std::int64_t>(model.app.partitions.size()) - 1;
    return model.app.partitions[static_cast<std::size_t>(rng.uniform_int(0, last))].name;
  };
  const auto faults = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < faults; ++i) {
    config::FaultEventSpec fault;
    fault.at_s = round_to(rng.uniform(1.0, 40.0), 0.01);
    switch (rng.uniform_int(0, 8)) {
      case 0:
        fault.kind = FaultKind::kBusDrop;
        fault.target = pick(rng, config::kArchBusNames);
        fault.value = static_cast<double>(rng.uniform_int(1, 8));
        break;
      case 1:
        fault.kind = FaultKind::kBusCorrupt;
        fault.target = pick(rng, config::kArchBusNames);
        fault.value = static_cast<double>(rng.uniform_int(1, 8));
        break;
      case 2:
        fault.kind = FaultKind::kBusOff;
        fault.target = pick(rng, config::kArchBusNames);
        fault.value = round_to(rng.uniform(0.02, 0.2), 0.001);
        break;
      case 3:
        fault.kind = FaultKind::kBusBabble;
        fault.target = pick(rng, config::kArchBusNames);
        fault.value = round_to(rng.uniform(0.05, 0.3), 0.001);
        break;
      case 4:
        fault.kind = FaultKind::kPartitionCrash;
        fault.target = pick_partition();
        fault.value = 0.0;
        break;
      case 5:
        fault.kind = FaultKind::kPartitionHang;
        fault.target = pick_partition();
        fault.value = static_cast<double>(rng.uniform_int(1, 5));
        break;
      case 6:
        fault.kind = FaultKind::kSensorStuck;
        fault.target = std::to_string(rng.uniform_int(
            0, static_cast<std::int64_t>(model.cell_count) - 1));
        fault.value = round_to(rng.uniform(2.9, 4.1), 0.01);
        break;
      case 7:
        fault.kind = FaultKind::kBusErrorRate;
        fault.target = pick(rng, kCanBus);
        fault.value = round_to(rng.uniform(0.0, 200.0), 0.1);
        break;
      default:
        fault.kind = FaultKind::kBusErrorProb;
        fault.target = pick(rng, kCanBus);
        fault.value = round_to(rng.uniform(0.0, 0.03), 0.0001);
        break;
    }
    spec.faults.push_back(std::move(fault));
  }
  spec.subsystems.faults = true;
  spec.fault_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));
}

/// Mutates `arch.*` against the extracted model so every override is
/// feasible by construction: moved frames are movable (and CAN-sized),
/// renumbered ids swap within one CAN bus's existing pool, FlexRay slots
/// permute the stock static assignment, partition windows cover every
/// default partition and fit the major frame.
void generate_arch(util::Rng& rng, const VehicleModel& model, ScenarioSpec& spec) {
  switch (rng.uniform_int(0, 5)) {
    case 2: {  // Move one or two movable frames onto a CAN bus.
      std::vector<const FrameModel*> movable;
      for (const FrameModel& frame : model.frames)
        if (frame.movable && !frame.routed && frame.payload_bytes <= 8)
          movable.push_back(&frame);
      if (movable.empty()) break;
      const auto moves = rng.uniform_int(1, 2);
      std::set<std::uint32_t> moved;
      for (std::int64_t m = 0; m < moves; ++m) {
        const FrameModel* frame = movable[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(movable.size()) - 1))];
        if (!moved.insert(frame->base_id).second) continue;
        spec.arch.set_frame_bus(frame->base_id,
                                rng.bernoulli(0.5) ? "comfort_can" : "safety_can");
      }
      break;
    }
    case 3: {  // Swap two wire identifiers within one CAN bus's pool.
      const std::size_t bus = rng.bernoulli(0.5) ? 1 : 3;
      std::vector<const FrameModel*> pool;
      for (const FrameModel& frame : model.frames)
        if (frame.bus == bus && frame.id_mutable && !frame.routed)
          pool.push_back(&frame);
      if (pool.size() < 2) break;
      const auto a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      auto b = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 2));
      if (b >= a) ++b;
      spec.arch.set_frame_id(pool[a]->base_id, pool[b]->id);
      spec.arch.set_frame_id(pool[b]->base_id, pool[a]->id);
      break;
    }
    case 4: {  // Permute the chassis FlexRay static-slot assignment.
      const BusModel& chassis = model.buses[4];
      std::vector<std::pair<std::uint32_t, std::uint64_t>> slots;
      for (const auto& [id, slot] : chassis.fr_static_slot) {
        const bool local = std::any_of(
            model.frames.begin(), model.frames.end(), [&](const FrameModel& f) {
              return f.bus == 4 && !f.routed && f.id == id && f.base_id == id;
            });
        if (local) slots.emplace_back(id, static_cast<std::uint64_t>(slot));
      }
      if (slots.size() < 2) break;
      // Fisher-Yates over the slot values; the id order stays canonical.
      for (std::size_t i = slots.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i)));
        std::swap(slots[i].second, slots[j].second);
      }
      for (const auto& [id, slot] : slots) spec.arch.set_fr_slot(id, slot);
      break;
    }
    case 5: {  // Re-plan the cockpit partition windows (order + budgets).
      std::vector<config::PartitionWindowSpec> windows;
      std::int64_t total = 0;
      for (const core::PartitionModel& partition : model.app.partitions) {
        windows.push_back({partition.name, partition.budget_us});
        total += partition.budget_us;
      }
      if (windows.empty()) break;
      // Grow budgets into the spare major-frame time (never shrink, so the
      // default demand still fits), then shuffle the window order.
      std::int64_t slack = spec.timing.middleware_frame_us - total;
      for (config::PartitionWindowSpec& window : windows) {
        if (slack <= 0) break;
        const std::int64_t grow = rng.uniform_int(0, slack / 2);
        window.budget_us += grow;
        slack -= grow;
      }
      for (std::size_t i = windows.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i)));
        std::swap(windows[i], windows[j]);
      }
      spec.arch.set_partition_windows(std::move(windows));
      break;
    }
    default:  // Stock architecture (weighted: 2 of 6 categories mutate not).
      break;
  }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Non-empty description of the first violated ledger invariant.
std::string conservation_violation(const core::ScenarioRunResult& run) {
  const auto& cycle = run.cosim.cycle;
  const auto finite_nonneg = [](double v, const char* what) -> std::string {
    if (!std::isfinite(v) || v < 0.0)
      return std::string(what) + " = " + config::format_double(v) +
             " (expected finite and >= 0)";
    return {};
  };
  std::string err;
  if (!(err = finite_nonneg(cycle.duration_s, "cycle.duration_s")).empty())
    return err;
  if (!(err = finite_nonneg(cycle.distance_km, "cycle.distance_km")).empty())
    return err;
  if (!(err = finite_nonneg(cycle.battery_energy_out_wh, "battery_energy_out_wh"))
           .empty())
    return err;
  if (!(err = finite_nonneg(cycle.battery_energy_in_wh, "battery_energy_in_wh"))
           .empty())
    return err;
  if (!(err = finite_nonneg(cycle.regen_recovered_wh, "regen_recovered_wh")).empty())
    return err;
  if (!(err = finite_nonneg(cycle.friction_brake_loss_wh, "friction_brake_loss_wh"))
           .empty())
    return err;
  if (!(err = finite_nonneg(cycle.motor_loss_wh, "motor_loss_wh")).empty())
    return err;
  if (!(err = finite_nonneg(cycle.aux_energy_wh, "aux_energy_wh")).empty())
    return err;
  if (cycle.duration_s <= 0.0) return "cycle.duration_s must be positive";
  if (!std::isfinite(cycle.final_soc) || cycle.final_soc < -1e-9 ||
      cycle.final_soc > 1.0 + 1e-9)
    return "final_soc = " + config::format_double(cycle.final_soc) +
           " outside [0, 1]";
  // Regen recovered is energy_in minus charging losses — it can never
  // exceed what actually flowed back into the pack.
  if (cycle.regen_recovered_wh > cycle.battery_energy_in_wh + 1e-6)
    return "regen_recovered_wh " + config::format_double(cycle.regen_recovered_wh) +
           " exceeds battery_energy_in_wh " +
           config::format_double(cycle.battery_energy_in_wh);
  if (run.cosim.bms_frames_at_hmi > run.cosim.bms_frames_published)
    return "bms_frames_at_hmi " + std::to_string(run.cosim.bms_frames_at_hmi) +
           " exceeds bms_frames_published " +
           std::to_string(run.cosim.bms_frames_published);
  return {};
}

/// E19 contract on every surface no declared fault can perturb; counts the
/// comparisons up to and including the first violation.
std::string bound_violations(const VehicleModel& model, const Report& report,
                             core::VehicleSystem& vehicle, std::size_t* comparisons) {
  for (const analysis::BoundCheck& check :
       analysis::bound_checks(model, report, vehicle)) {
    ++*comparisons;
    if (check.sound()) continue;
    std::string what;
    switch (check.surface) {
      case analysis::BoundSurface::kBusFrame:
        what = check.subject + " frame latency ";
        break;
      case analysis::BoundSurface::kPubSub: what = "pub/sub delivery latency "; break;
      case analysis::BoundSurface::kGatewayHop: what = "gateway hop latency "; break;
    }
    return what + config::format_double(check.observed_us) +
           " us exceeds static bound " + config::format_double(check.bound_us) + " us";
  }
  return {};
}

/// Backlog drain of the prob-oracle testbed after its send window.
constexpr double kProbDrainS = 3.0;

/// E24 contract for every armed CAN bus of \p spec.
std::string prob_violations(const VehicleModel& model, const ScenarioSpec& spec,
                            double send_s, std::size_t* comparisons) {
  if (std::none_of(spec.faults.begin(), spec.faults.end(),
                   [](const config::FaultEventSpec& fault) {
                     return core::fault_target_kind(fault.kind) ==
                            core::FaultTargetKind::kCanBus;
                   }))
    return {};
  analysis::ProbabilisticCanAnalyzer analyzer(model);
  for (const std::size_t b : analysis::armed_can_buses(analyzer)) {
    const ProbOutcome& outcome = analyzer.bus_outcome(b);
    const std::vector<analysis::FrameTally> tallies = analysis::run_prob_testbed(
        model, b, analyzer.error_models()[b], spec.fault_seed, send_s, kProbDrainS);
    for (std::size_t s = 0; s < outcome.frames.size(); ++s) {
      const FrameMissBound& bound = outcome.frames[s];
      const analysis::FrameTally& tally = tallies[s];
      if (tally.sent == 0) continue;
      ++*comparisons;
      const double observed = static_cast<double>(tally.missed) /
                              static_cast<double>(tally.sent);
      const double limit =
          bound.miss_probability + analysis::hoeffding_tolerance(tally.sent);
      if (observed > limit) {
        char id_hex[16];
        std::snprintf(id_hex, sizeof id_hex, "0x%x",
                      model.frames[bound.frame].id);
        return model.buses[b].scenario_name + "/" + id_hex +
               " observed miss frequency " + config::format_double(observed) +
               " exceeds analytic bound " +
               config::format_double(bound.miss_probability) + " + tolerance " +
               config::format_double(limit - bound.miss_probability);
      }
    }
  }
  return {};
}

}  // namespace

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

config::ScenarioSpec ScenarioGenerator::scenario(int index) const {
  util::Rng rng(mix(root_seed_, static_cast<std::uint64_t>(index)));
  ScenarioSpec spec;
  spec.name = "fuzz-s" + std::to_string(root_seed_) + "-" + std::to_string(index);

  static constexpr config::CycleKind kCycles[] = {config::CycleKind::kUrban,
                                                  config::CycleKind::kHighway,
                                                  config::CycleKind::kSuburban};
  spec.drive.cycle = pick(rng, kCycles);
  spec.drive.repeat = rng.bernoulli(0.1) ? 2 : 1;

  spec.pack.module_count = static_cast<std::uint64_t>(rng.uniform_int(2, 8));
  spec.pack.cells_per_module = static_cast<std::uint64_t>(rng.uniform_int(4, 12));
  spec.pack.initial_soc = round_to(rng.uniform(0.55, 0.95), 0.001);
  spec.pack.soc_spread_sigma = round_to(rng.uniform(0.0, 0.03), 0.0001);
  spec.pack.lfp_chemistry = rng.bernoulli(0.25);

  static constexpr config::Balancing kBalancing[] = {config::Balancing::kNone,
                                                     config::Balancing::kPassive,
                                                     config::Balancing::kActive};
  spec.bms.balancing = pick(rng, kBalancing);
  spec.bms.initial_soc_estimate = round_to(
      std::clamp(spec.pack.initial_soc + rng.uniform(-0.04, 0.04), 0.0, 1.0),
      0.001);

  spec.powertrain.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));
  spec.powertrain.aux_power_w = round_to(rng.uniform(100.0, 900.0), 0.1);

  spec.network.load_scale = round_to(rng.uniform(0.5, 2.0), 0.01);
  static constexpr double kCanRates[] = {125e3, 250e3, 500e3, 800e3, 1e6};
  static constexpr double kLinRates[] = {9600.0, 19200.0};
  static constexpr double kFrRates[] = {5e6, 10e6};
  spec.network.can_bit_rate = pick(rng, kCanRates);
  spec.network.lin_bit_rate = pick(rng, kLinRates);
  spec.network.flexray_bit_rate = pick(rng, kFrRates);

  static constexpr double kControlPeriods[] = {0.05, 0.1, 0.2};
  static constexpr double kPublishPeriods[] = {0.1, 0.2};
  static constexpr std::int64_t kFrames[] = {20000, 40000};
  spec.timing.control_period_s = pick(rng, kControlPeriods);
  spec.timing.bms_publish_period_s = pick(rng, kPublishPeriods);
  spec.timing.middleware_frame_us = pick(rng, kFrames);

  spec.subsystems.obs = true;  // the oracles read the histograms
  spec.subsystems.health = rng.bernoulli(0.5);
  spec.subsystems.security = rng.bernoulli(0.3);

  // Arch overrides and fault plans mutate against the model this spec
  // extracts without them — that is what makes every override feasible and
  // every fault target real by construction.
  const VehicleModel model = analysis::extract_model(spec);
  generate_arch(rng, model, spec);
  generate_faults(rng, model, spec);
  return spec;
}

config::FleetSpec ScenarioGenerator::fleet(int index) const {
  // Offset stream: fleet specs never share draws with scenario(index).
  util::Rng rng(mix(root_seed_ ^ 0xf1ee7f1ee7ULL, static_cast<std::uint64_t>(index)));
  config::FleetSpec spec;
  spec.name =
      "fuzz-fleet-s" + std::to_string(root_seed_) + "-" + std::to_string(index);
  spec.stations = static_cast<std::uint64_t>(rng.uniform_int(4, 128));
  spec.feeders = static_cast<std::uint64_t>(
      rng.uniform_int(1, std::min<std::int64_t>(8, static_cast<std::int64_t>(
                                                       spec.stations))));
  spec.sim_hours = round_to(rng.uniform(0.5, 4.0), 0.01);
  static constexpr double kTicks[] = {0.5, 1.0, 2.0};
  spec.tick_s = pick(rng, kTicks);
  spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));
  spec.station_max_current_a = round_to(rng.uniform(16.0, 64.0), 0.1);
  spec.station_min_current_a = round_to(rng.uniform(2.0, 8.0), 0.1);
  spec.station_safe_current_a = round_to(rng.uniform(4.0, 12.0), 0.1);
  static constexpr double kVoltages[] = {400.0, 800.0};
  spec.station_voltage_v = pick(rng, kVoltages);
  spec.rogue_stations = static_cast<std::uint64_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(spec.stations) / 8));
  spec.arrival_rate_per_station_per_h = round_to(rng.uniform(0.1, 1.5), 0.01);
  spec.session_energy_min_kwh = round_to(rng.uniform(2.0, 10.0), 0.1);
  spec.session_energy_max_kwh =
      round_to(spec.session_energy_min_kwh + rng.uniform(5.0, 30.0), 0.1);
  static constexpr double kMeterPeriods[] = {30.0, 60.0, 120.0};
  spec.meter_period_s = pick(rng, kMeterPeriods);
  spec.grid_capacity_kw = round_to(rng.uniform(200.0, 1200.0), 0.1);
  spec.rebalance_period_s = spec.tick_s * static_cast<double>(rng.uniform_int(1, 10));
  spec.heartbeat_period_s = round_to(rng.uniform(5.0, 15.0), 0.1);
  spec.heartbeat_lease_s =
      round_to(spec.heartbeat_period_s * rng.uniform(1.0, 4.0), 0.1);
  if (spec.heartbeat_lease_s < spec.heartbeat_period_s)
    spec.heartbeat_lease_s = spec.heartbeat_period_s;
  spec.msg_loss_probability = round_to(rng.uniform(0.0, 0.3), 0.001);
  spec.retry_max_attempts = static_cast<std::uint64_t>(rng.uniform_int(1, 8));
  spec.retry_timeout_s = round_to(rng.uniform(0.5, 5.0), 0.01);
  spec.retry_backoff_base_s = round_to(rng.uniform(0.5, 4.0), 0.01);
  spec.retry_backoff_cap_s =
      round_to(spec.retry_backoff_base_s * rng.uniform(1.0, 30.0), 0.01);
  if (spec.retry_backoff_cap_s < spec.retry_backoff_base_s)
    spec.retry_backoff_cap_s = spec.retry_backoff_base_s;
  spec.retry_jitter = round_to(rng.uniform(0.0, 1.0), 0.001);

  const auto grid_faults = rng.uniform_int(0, 3);
  const double horizon_s = spec.sim_hours * 3600.0;
  for (std::int64_t i = 0; i < grid_faults; ++i) {
    config::GridFaultSpec fault;
    fault.at_s = round_to(rng.uniform(0.0, horizon_s * 0.8), 1.0);
    fault.duration_s = round_to(rng.uniform(10.0, 600.0), 1.0);
    switch (rng.uniform_int(0, 2)) {
      case 0:
        fault.kind = config::GridFaultKindSpec::kCapacityDrop;
        fault.value = round_to(rng.uniform(0.1, 1.0), 0.01);
        if (fault.value <= 0.0) fault.value = 0.1;
        break;
      case 1:
        fault.kind = config::GridFaultKindSpec::kFeederPartition;
        fault.target = static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(spec.feeders) - 1));
        break;
      default:
        fault.kind = config::GridFaultKindSpec::kCommsBlackout;
        fault.target = static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(spec.stations) - 1));
        fault.value = static_cast<double>(rng.uniform_int(
            1, static_cast<std::int64_t>(spec.stations - fault.target)));
        break;
    }
    spec.grid_faults.push_back(fault);
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

const char* to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kRejected: return "rejected";
    case Verdict::kSimulated: return "simulated";
    case Verdict::kFailed: return "failed";
  }
  return "?";
}

const char* to_string(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kRoundTrip: return "round_trip";
    case FailureKind::kCheckThrow: return "check_throw";
    case FailureKind::kSimThrow: return "sim_throw";
    case FailureKind::kConservation: return "conservation";
    case FailureKind::kBoundViolation: return "bound_violation";
    case FailureKind::kProbViolation: return "prob_violation";
  }
  return "?";
}

ScenarioOutcome evaluate_scenario(const config::ScenarioSpec& spec,
                                  double prob_send_s) {
  ScenarioOutcome out;
  out.spec = spec;

  const auto failed = [&out](FailureKind kind, std::string detail) {
    out.verdict = Verdict::kFailed;
    out.failure = kind;
    out.detail = std::move(detail);
  };

  // 1. Lossless text round trip.
  try {
    const ScenarioSpec back = ScenarioSpec::from_text(spec.to_text());
    if (!(back == spec)) {
      failed(FailureKind::kRoundTrip,
             "from_text(to_text(spec)) differs from the original spec");
      return out;
    }
  } catch (const std::exception& e) {
    failed(FailureKind::kRoundTrip, e.what());
    return out;
  }

  // 2. Static pre-filter.
  VehicleModel model;
  Report report;
  try {
    model = analysis::extract_model(spec);
    report = analysis::analyze(model);
  } catch (const std::exception& e) {
    failed(FailureKind::kCheckThrow, e.what());
    return out;
  }
  out.check_errors = report.count(analysis::Severity::kError);
  out.check_warnings = report.count(analysis::Severity::kWarning);
  if (out.check_errors > 0) {
    out.verdict = Verdict::kRejected;
    return out;
  }

  // 3. Co-simulation.
  std::unique_ptr<core::VehicleSystem> vehicle;
  core::ScenarioRunResult run;
  try {
    run = core::run_scenario(spec, &vehicle);
  } catch (const std::exception& e) {
    failed(FailureKind::kSimThrow, e.what());
    return out;
  }
  const std::string result = core::result_json(run);
  out.result_digest = util::crc32_ieee(
      {reinterpret_cast<const std::uint8_t*>(result.data()), result.size()});

  // 4. Oracles.
  std::string err = conservation_violation(run);
  if (!err.empty()) {
    failed(FailureKind::kConservation, err);
    return out;
  }
  err = bound_violations(model, report, *vehicle, &out.bound_comparisons);
  if (!err.empty()) {
    failed(FailureKind::kBoundViolation, err);
    return out;
  }
  err = prob_violations(model, spec, prob_send_s, &out.prob_comparisons);
  if (!err.empty()) {
    failed(FailureKind::kProbViolation, err);
    return out;
  }
  out.verdict = Verdict::kSimulated;
  return out;
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

config::ScenarioSpec shrink_spec(
    const config::ScenarioSpec& spec,
    const std::function<bool(const config::ScenarioSpec&)>& still_fails,
    int max_evals) {
  int evals = 0;
  ScenarioSpec best = spec;

  const auto keep = [&](const ScenarioSpec& candidate) {
    if (evals >= max_evals) return false;
    try {
      candidate.validate();
    } catch (const std::exception&) {
      return false;  // never hand the predicate an invalid spec
    }
    ++evals;
    if (!still_fails(candidate)) return false;
    best = candidate;
    return true;
  };

  bool progress = true;
  while (progress && evals < max_evals) {
    progress = false;
    // Drop faults one at a time (last to first keeps earlier indexes valid).
    for (std::size_t i = best.faults.size(); i-- > 0;) {
      ScenarioSpec candidate = best;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (keep(candidate)) progress = true;
    }
    // Clear arch sections wholesale.
    const auto clear_section = [&](auto member) {
      if ((best.arch.*member).empty()) return;
      ScenarioSpec candidate = best;
      (candidate.arch.*member).clear();
      if (keep(candidate)) progress = true;
    };
    clear_section(&config::ArchSpec::frame_buses);
    clear_section(&config::ArchSpec::frame_ids);
    clear_section(&config::ArchSpec::fr_slots);
    clear_section(&config::ArchSpec::partitions);
    // Shorten the mission.
    if (best.drive.repeat > 1) {
      ScenarioSpec candidate = best;
      candidate.drive.repeat = 1;
      if (keep(candidate)) progress = true;
    }
    if (best.drive.cycle != config::CycleKind::kUrban) {
      ScenarioSpec candidate = best;
      candidate.drive.cycle = config::CycleKind::kUrban;
      if (keep(candidate)) progress = true;
    }
    // Disable optional subsystems.
    if (best.subsystems.security) {
      ScenarioSpec candidate = best;
      candidate.subsystems.security = false;
      if (keep(candidate)) progress = true;
    }
    if (best.subsystems.health) {
      ScenarioSpec candidate = best;
      candidate.subsystems.health = false;
      if (keep(candidate)) progress = true;
    }
    if (best.subsystems.faults && best.faults.empty()) {
      ScenarioSpec candidate = best;
      candidate.subsystems.faults = false;
      if (keep(candidate)) progress = true;
    }
    // Reset whole sections to their defaults.
    const auto reset_section = [&](auto member) {
      using Section = std::decay_t<decltype(best.*member)>;
      if (best.*member == Section{}) return;
      ScenarioSpec candidate = best;
      candidate.*member = Section{};
      if (keep(candidate)) progress = true;
    };
    reset_section(&ScenarioSpec::pack);
    reset_section(&ScenarioSpec::bms);
    reset_section(&ScenarioSpec::powertrain);
    reset_section(&ScenarioSpec::network);
    reset_section(&ScenarioSpec::timing);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

std::size_t FuzzResult::failures() const noexcept {
  std::size_t n = fleet_round_trip_failures.size();
  for (const ScenarioOutcome& outcome : scenarios)
    if (outcome.failure != FailureKind::kNone) ++n;
  return n;
}

FuzzResult run_fuzz(const FuzzOptions& options) {
  FuzzResult result;
  result.seed = options.seed;
  result.count = std::max(options.count, 0);
  const ScenarioGenerator generator(options.seed);

  // Fan out into per-index slots: each slot is a pure
  // function of (seed, index), so the folded report is byte-identical for
  // any --jobs value.
  result.scenarios.resize(static_cast<std::size_t>(result.count));
  util::parallel_for(options.jobs, result.count, [&](int index) {
    const ScenarioSpec spec = generator.scenario(index);
    ScenarioOutcome outcome = evaluate_scenario(spec, options.prob_send_s);
    outcome.index = index;
    if (outcome.failure != FailureKind::kNone && options.shrink) {
      const FailureKind kind = outcome.failure;
      outcome.spec = shrink_spec(
          spec,
          [&](const ScenarioSpec& candidate) {
            return evaluate_scenario(candidate, options.prob_send_s).failure ==
                   kind;
          },
          options.shrink_budget);
    }
    result.scenarios[static_cast<std::size_t>(index)] = std::move(outcome);
  });

  // Fleet round trips exercise the second `key = value` parser; they are
  // text-only and cheap, so they run serially.
  result.fleets_generated = result.count / 4;
  for (int i = 0; i < result.fleets_generated; ++i) {
    const config::FleetSpec spec = generator.fleet(i);
    bool ok = false;
    try {
      ok = config::FleetSpec::from_text(spec.to_text()) == spec;
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) result.fleet_round_trip_failures.push_back(i);
  }

  // Reproducers, serially in index order.
  if (!options.reproducer_dir.empty()) {
    for (ScenarioOutcome& outcome : result.scenarios) {
      if (outcome.failure == FailureKind::kNone) continue;
      outcome.reproducer = outcome.spec.name + ".repro.scn";
      config::save_scenario_file(outcome.spec,
                                 options.reproducer_dir + "/" + outcome.reproducer);
    }
  }
  return result;
}

void write_fuzz_json(const FuzzResult& result, std::ostream& out) {
  std::size_t rejected = 0, simulated = 0, failed = 0, warnings = 0;
  std::size_t bound_comparisons = 0, prob_comparisons = 0;
  for (const ScenarioOutcome& outcome : result.scenarios) {
    warnings += outcome.check_warnings;
    bound_comparisons += outcome.bound_comparisons;
    prob_comparisons += outcome.prob_comparisons;
    switch (outcome.verdict) {
      case Verdict::kRejected: ++rejected; break;
      case Verdict::kSimulated: ++simulated; break;
      case Verdict::kFailed: ++failed; break;
    }
  }
  out << "{\n  \"experiment\": \"fuzz\",\n  \"seed\": " << result.seed
      << ",\n  \"count\": " << result.count << ",\n  \"summary\": {"
      << "\"rejected\": " << rejected << ", \"simulated\": " << simulated
      << ", \"failed\": " << failed << ", \"check_warnings\": " << warnings
      << ", \"bound_comparisons\": " << bound_comparisons
      << ", \"prob_comparisons\": " << prob_comparisons
      << ", \"fleets\": " << result.fleets_generated
      << ", \"fleet_round_trip_failures\": "
      << result.fleet_round_trip_failures.size() << "},\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
    const ScenarioOutcome& outcome = result.scenarios[i];
    char digest[16];
    std::snprintf(digest, sizeof digest, "0x%08x", outcome.result_digest);
    out << "    {\"index\": " << outcome.index << ", \"name\": \""
        << util::json_escape(outcome.spec.name) << "\", \"verdict\": \""
        << to_string(outcome.verdict) << "\", \"check_errors\": "
        << outcome.check_errors << ", \"check_warnings\": "
        << outcome.check_warnings << ", \"bound_comparisons\": "
        << outcome.bound_comparisons << ", \"prob_comparisons\": "
        << outcome.prob_comparisons << ", \"digest\": \"" << digest << "\"}"
        << (i + 1 < result.scenarios.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"failures\": [\n";
  bool first = true;
  for (const ScenarioOutcome& outcome : result.scenarios) {
    if (outcome.failure == FailureKind::kNone) continue;
    if (!first) out << ",\n";
    first = false;
    out << "    {\"index\": " << outcome.index << ", \"kind\": \""
        << to_string(outcome.failure) << "\", \"detail\": \""
        << util::json_escape(outcome.detail) << "\", \"reproducer\": \""
        << util::json_escape(outcome.reproducer) << "\"}";
  }
  for (const int index : result.fleet_round_trip_failures) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"fleet_index\": " << index
        << ", \"kind\": \"fleet_round_trip\"}";
  }
  if (!first) out << "\n";
  out << "  ]\n}\n";
}

std::string fuzz_json(const FuzzResult& result) {
  std::ostringstream out;
  write_fuzz_json(result, out);
  return out.str();
}

}  // namespace ev::fuzz

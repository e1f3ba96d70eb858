#include "ev/synthesis/synthesis.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ev/analysis/model.h"
#include "ev/network/can.h"
#include "ev/util/json.h"
#include "ev/util/math.h"
#include "ev/util/rng.h"
#include "ev/util/worker_pool.h"

namespace ev::synthesis {
namespace {

using analysis::BusIssue;
using analysis::BusIssueKind;
using analysis::Fitness;
using analysis::FitnessEvaluator;
using analysis::FrameModel;
using analysis::Protocol;
using analysis::VehicleModel;

/// Temporary wire-id block used while permuting CAN identifiers. 0x700..0x7ff
/// sits between the comfort (0x3xx) and MOST (0x8xx) id blocks and is never
/// assigned by the topology or the synthesizer.
constexpr std::uint32_t kTempIdBase = 0x700;

bool is_can(const VehicleModel& model, std::size_t bus) {
  return model.buses[bus].protocol == Protocol::kCan;
}

/// One scenario plus the incremental evaluator mirroring it. Every mutation
/// goes through apply_move / the apply_* helpers so the two never diverge.
struct Design {
  config::ScenarioSpec spec;
  FitnessEvaluator eval;

  explicit Design(config::ScenarioSpec s)
      : spec(std::move(s)), eval(analysis::extract_model(spec)) {}
};

/// One candidate design mutation (the annealer's move alphabet).
struct Move {
  enum class Kind : std::uint8_t {
    kNone,         ///< Deliberate no-op (infeasible draw degraded here).
    kMoveFrame,    ///< Re-place one movable frame on another bus.
    kSwapIds,      ///< Swap the wire ids of two frames on one CAN bus.
    kSwapSlots,    ///< Swap two chassis static slots.
    kSwapWindows,  ///< Swap two partition windows.
  };
  Kind kind = Kind::kNone;
  std::size_t frame = 0;                         // kMoveFrame
  std::size_t to_bus = 0;                        // kMoveFrame
  std::size_t frame_a = 0, frame_b = 0;          // kSwapIds
  std::uint32_t slot_id_a = 0, slot_id_b = 0;    // kSwapSlots
  std::size_t win_a = 0, win_b = 0;              // kSwapWindows
};

/// Applies one wire-id reassignment to the evaluator and (optionally) the
/// spec mirror. `assignment` maps frame index -> new wire id and must be
/// collision-free as a whole; a two-phase pass through the temp block keeps
/// the gateway route syncing unambiguous while ids swap places.
void apply_id_assignment(FitnessEvaluator& eval, config::ScenarioSpec* spec,
                         const std::map<std::size_t, std::uint32_t>& assignment) {
  std::vector<std::pair<std::size_t, std::uint32_t>> changed;
  for (const auto& [frame, id] : assignment)
    if (eval.model().frames[frame].id != id) changed.emplace_back(frame, id);
  std::uint32_t temp = kTempIdBase;
  for (const auto& [frame, id] : changed) eval.renumber_frame(frame, temp++);
  for (const auto& [frame, id] : changed) {
    eval.renumber_frame(frame, id);
    if (spec != nullptr)
      spec->arch.set_frame_id(eval.model().frames[frame].base_id, id);
  }
}

void apply_fr_slots(FitnessEvaluator& eval, config::ScenarioSpec* spec,
                    const std::map<std::uint32_t, std::size_t>& id_to_slot) {
  eval.set_fr_slots(id_to_slot);
  if (spec == nullptr) return;
  spec->arch.clear_fr_slots();
  // The default table assigns slot i to the i-th id in ascending order; an
  // identity permutation needs no override lines at all.
  std::size_t rank = 0;
  bool identity = true;
  for (const auto& [id, slot] : id_to_slot) identity &= slot == rank++;
  if (identity) return;
  for (const auto& [id, slot] : id_to_slot) spec->arch.set_fr_slot(id, slot);
}

void apply_partition_windows(
    FitnessEvaluator& eval, config::ScenarioSpec* spec,
    const std::vector<std::pair<std::string, std::int64_t>>& windows) {
  eval.set_partition_windows(windows);
  if (spec == nullptr) return;
  std::vector<config::PartitionWindowSpec> plan;
  plan.reserve(windows.size());
  for (const auto& [partition, budget_us] : windows)
    plan.push_back({partition, budget_us});
  spec->arch.set_partition_windows(std::move(plan));
}

/// Applies \p move to the evaluator and, when \p spec is given, mirrors it
/// into the scenario's ArchSpec so that re-extracting the spec reproduces
/// the evaluator's model exactly.
void apply_move(FitnessEvaluator& eval, config::ScenarioSpec* spec, const Move& move) {
  switch (move.kind) {
    case Move::Kind::kNone:
      break;
    case Move::Kind::kMoveFrame: {
      const FrameModel& frame = eval.model().frames[move.frame];
      const std::uint32_t base = frame.base_id;
      // A renumbering is a CAN-only notion: leaving CAN restores the
      // original id first (the network builder rejects remaps elsewhere).
      if (frame.id != base && !is_can(eval.model(), move.to_bus)) {
        eval.renumber_frame(move.frame, base);
        if (spec != nullptr) spec->arch.set_frame_id(base, base);
      }
      eval.move_frame(move.frame, move.to_bus);
      if (spec != nullptr) {
        if (move.to_bus == config::home_bus(base))
          spec->arch.clear_frame_bus(base);
        else
          spec->arch.set_frame_bus(base, config::kArchBusNames[move.to_bus]);
      }
      break;
    }
    case Move::Kind::kSwapIds: {
      const std::uint32_t id_a = eval.model().frames[move.frame_a].id;
      const std::uint32_t id_b = eval.model().frames[move.frame_b].id;
      apply_id_assignment(eval, spec,
                          {{move.frame_a, id_b}, {move.frame_b, id_a}});
      break;
    }
    case Move::Kind::kSwapSlots: {
      for (std::size_t b = 0; b < eval.model().buses.size(); ++b) {
        if (eval.model().buses[b].protocol != Protocol::kFlexRay) continue;
        std::map<std::uint32_t, std::size_t> slots =
            eval.model().buses[b].fr_static_slot;
        std::swap(slots.at(move.slot_id_a), slots.at(move.slot_id_b));
        apply_fr_slots(eval, spec, slots);
      }
      break;
    }
    case Move::Kind::kSwapWindows: {
      std::vector<std::pair<std::string, std::int64_t>> windows;
      for (const core::PartitionModel& partition : eval.model().app.partitions)
        windows.emplace_back(partition.name, partition.budget_us);
      std::swap(windows[move.win_a], windows[move.win_b]);
      apply_partition_windows(eval, spec, windows);
      break;
    }
  }
}

void apply_can_bit_rate(Design& design, double bit_rate_bps) {
  design.spec.network.can_bit_rate = bit_rate_bps;
  design.eval.set_can_bit_rate(bit_rate_bps);
}

/// Frame indices the annealer may re-place (sorted, deterministic).
std::vector<std::size_t> movable_frames(const VehicleModel& model) {
  std::vector<std::size_t> out;
  for (std::size_t f = 0; f < model.frames.size(); ++f)
    if (model.frames[f].movable && !model.frames[f].routed) out.push_back(f);
  return out;
}

/// Frames on \p bus whose id the synthesizer may reassign (CAN frames the
/// analyzer actually schedules — oversized payloads are excluded exactly as
/// the RTA excludes them).
std::vector<std::size_t> renumberable_on_bus(const FitnessEvaluator& eval,
                                             std::size_t bus) {
  std::vector<std::size_t> out;
  for (const std::size_t f : eval.frames_on_bus(bus)) {
    const FrameModel& frame = eval.model().frames[f];
    if (frame.id_mutable && frame.payload_bytes <= 8) out.push_back(f);
  }
  return out;
}

bool wire_id_in_use(const FitnessEvaluator& eval, std::size_t bus, std::uint32_t id) {
  for (const std::size_t f : eval.frames_on_bus(bus))
    if (eval.model().frames[f].id == id) return true;
  return false;
}

// ------------------------------------------------------------ phase A -------

/// True when any CAN bus still shows an overload or a blown deadline.
bool can_buses_unhappy(FitnessEvaluator& eval) {
  eval.evaluate();
  for (std::size_t b = 0; b < eval.model().buses.size(); ++b) {
    if (!is_can(eval.model(), b)) continue;
    const analysis::BusOutcome& outcome = eval.bus_outcome(b);
    if (outcome.overloaded) return true;
    for (const BusIssue& issue : outcome.issues)
      if (issue.kind == BusIssueKind::kCanUnschedulable) return true;
  }
  return false;
}

/// Structural repair of one ladder rung: enable health coverage, evict
/// frames their bus rejects, raise the CAN bit rate along {500k, 800k, 1M},
/// Audsley-assign CAN ids, build rate-monotonic FlexRay slots, and re-pack
/// partition windows when the ECU complains. Deterministic throughout.
Design repair(const config::ScenarioSpec& input) {
  config::ScenarioSpec spec = input;
  // Disabled health is a guaranteed warning per partition
  // (health.uncovered_partition); a feasible design must watch its ECUs.
  if (!spec.subsystems.health) spec.subsystems.health = true;
  Design design(std::move(spec));
  design.eval.evaluate();

  // --- Evict frames their current bus cannot carry --------------------------
  // LIN rejects ids outside the schedule table and blurs oversampled state;
  // CAN rejects >8-byte payloads; the FlexRay dynamic segment rejects frames
  // longer than itself. Move offenders to a CAN bus (or home) when allowed.
  for (std::size_t b = 0; b < design.eval.model().buses.size(); ++b) {
    // Snapshot the issue list: moves below invalidate the outcome.
    const std::vector<BusIssue> issues = design.eval.bus_outcome(b).issues;
    for (const BusIssue& issue : issues) {
      const FrameModel& frame = design.eval.model().frames[issue.frame];
      if (!frame.movable || frame.routed) continue;
      Move move;
      move.kind = Move::Kind::kMoveFrame;
      move.frame = issue.frame;
      switch (issue.kind) {
        case BusIssueKind::kLinNoSlot:
        case BusIssueKind::kLinOversampled: {
          // Least-loaded CAN bus takes the body traffic; ties go to comfort.
          design.eval.evaluate();
          move.to_bus =
              design.eval.bus_outcome(3).load < design.eval.bus_outcome(1).load ? 3 : 1;
          break;
        }
        case BusIssueKind::kCanPayload:
        case BusIssueKind::kFrDynamicOverflow: {
          const std::size_t home = config::home_bus(frame.base_id);
          if (home == frame.bus) continue;  // already home; nothing to repair
          move.to_bus = home;
          break;
        }
        case BusIssueKind::kCanUnschedulable:
        case BusIssueKind::kFrOversampled:
          continue;  // priority / slot assignment handles these below
      }
      if (wire_id_in_use(design.eval, move.to_bus, frame.id)) continue;
      apply_move(design.eval, &design.spec, move);
    }
  }

  // --- Rate-monotonic chassis slots (chassis bounds feed routed jitter) -----
  for (std::size_t b = 0; b < design.eval.model().buses.size(); ++b)
    if (design.eval.model().buses[b].protocol == Protocol::kFlexRay) {
      const std::map<std::uint32_t, std::size_t> slots =
          rm_fr_slots(design.eval.model(), b);
      if (slots != design.eval.model().buses[b].fr_static_slot)
        apply_fr_slots(design.eval, &design.spec, slots);
    }

  // --- Priorities first, bandwidth only if priorities cannot save it --------
  static constexpr double kCanRateLadder[] = {500e3, 800e3, 1e6};
  for (;;) {
    for (std::size_t b = 0; b < design.eval.model().buses.size(); ++b)
      if (is_can(design.eval.model(), b))
        apply_id_assignment(design.eval, &design.spec, assign_can_ids(design.eval, b));
    if (!can_buses_unhappy(design.eval)) break;
    double next = 0.0;
    for (const double rate : kCanRateLadder)
      if (rate > design.spec.network.can_bit_rate) {
        next = rate;
        break;
      }
    if (next == 0.0) break;  // bit-rate ladder exhausted
    apply_can_bit_rate(design, next);
  }

  // --- Partition windows: FFD re-pack with rollback -------------------------
  design.eval.evaluate();
  const analysis::EcuOutcome& ecu = design.eval.ecu_outcome();
  bool ecu_bad = ecu.frame_overflow;
  for (const scheduling::FpResponse& window : ecu.windows)
    ecu_bad |= !window.schedulable;
  for (std::size_t i = 0; i < ecu.partition_demand.size(); ++i)
    ecu_bad |= ecu.partition_demand[i] >
               design.eval.model().app.partitions[i].budget_us;
  if (ecu_bad) {
    const std::vector<std::pair<std::string, std::int64_t>> windows =
        ffd_partition_windows(design.eval.model());
    if (!windows.empty())  // empty = demands exceed the major frame: rollback
      apply_partition_windows(design.eval, &design.spec, windows);
  }

  design.eval.evaluate();
  return design;
}

// ------------------------------------------------------------ phase B -------

/// Draws one candidate move from the coordinator RNG. Draw counts vary by
/// kind, but the stream position depends only on the (deterministic) design
/// state, never on worker scheduling.
Move draw_move(util::Rng& rng, const FitnessEvaluator& eval) {
  Move move;
  const VehicleModel& model = eval.model();
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // re-place a movable frame
      const std::vector<std::size_t> frames = movable_frames(model);
      if (frames.empty()) break;
      const std::size_t frame =
          frames[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(frames.size()) - 1))];
      // Target: any bus except MOST (streams are closed) and the current one.
      std::vector<std::size_t> targets;
      for (const std::size_t b : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4}})
        if (b != model.frames[frame].bus) targets.push_back(b);
      const std::size_t to_bus =
          targets[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(targets.size()) - 1))];
      // The frame lands with its current id (or its base id when leaving
      // CAN); refuse draws that would collide on the target bus.
      const std::uint32_t landing_id = is_can(model, to_bus)
                                           ? model.frames[frame].id
                                           : model.frames[frame].base_id;
      if (wire_id_in_use(eval, to_bus, landing_id)) break;
      move.kind = Move::Kind::kMoveFrame;
      move.frame = frame;
      move.to_bus = to_bus;
      break;
    }
    case 1: {  // swap two CAN identifiers
      const std::size_t bus = rng.uniform_int(0, 1) == 0 ? 1 : 3;
      const std::vector<std::size_t> frames = renumberable_on_bus(eval, bus);
      if (frames.size() < 2) break;
      const std::int64_t n = static_cast<std::int64_t>(frames.size());
      const std::size_t a = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      std::size_t b = static_cast<std::size_t>(rng.uniform_int(0, n - 2));
      if (b >= a) ++b;
      move.kind = Move::Kind::kSwapIds;
      move.frame_a = frames[a];
      move.frame_b = frames[b];
      break;
    }
    case 2: {  // swap two chassis static slots
      const auto& slots = model.buses[4].fr_static_slot;
      if (slots.size() < 2) break;
      std::vector<std::uint32_t> ids;
      for (const auto& [id, slot] : slots) ids.push_back(id);
      const std::int64_t n = static_cast<std::int64_t>(ids.size());
      const std::size_t a = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      std::size_t b = static_cast<std::size_t>(rng.uniform_int(0, n - 2));
      if (b >= a) ++b;
      move.kind = Move::Kind::kSwapSlots;
      move.slot_id_a = ids[a];
      move.slot_id_b = ids[b];
      break;
    }
    default: {  // swap two partition windows
      const std::int64_t n = static_cast<std::int64_t>(model.app.partitions.size());
      if (n < 2) break;
      const std::size_t a = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      std::size_t b = static_cast<std::size_t>(rng.uniform_int(0, n - 2));
      if (b >= a) ++b;
      move.kind = Move::Kind::kSwapWindows;
      move.win_a = a;
      move.win_b = b;
      break;
    }
  }
  return move;
}

void pareto_insert(std::vector<ParetoPoint>& archive, const Fitness& fitness,
                   bool accepted) {
  if (!fitness.feasible()) return;
  for (ParetoPoint& point : archive) {
    if (point.fitness == fitness) {
      point.accepted |= accepted;
      return;
    }
    if (dominates(point.fitness, fitness)) return;
  }
  archive.erase(std::remove_if(archive.begin(), archive.end(),
                               [&fitness](const ParetoPoint& point) {
                                 return dominates(fitness, point.fitness);
                               }),
                archive.end());
  archive.push_back({fitness, accepted});
}

void write_fitness_json(const Fitness& fitness, std::ostream& out) {
  out << "{\"errors\": " << fitness.errors << ", \"warnings\": " << fitness.warnings
      << ", \"worst_slack_us\": " << config::format_double(fitness.worst_slack_us)
      << ", \"peak_busload\": " << config::format_double(fitness.peak_busload)
      << ", \"deployment\": " << fitness.deployment << "}";
}

}  // namespace

// ---------------------------------------------------------- public API ------

bool dominates(const Fitness& a, const Fitness& b) {
  const bool no_worse = a.worst_slack_us >= b.worst_slack_us &&
                        a.peak_busload <= b.peak_busload &&
                        a.deployment <= b.deployment;
  const bool better = a.worst_slack_us > b.worst_slack_us ||
                      a.peak_busload < b.peak_busload || a.deployment < b.deployment;
  return no_worse && better;
}

double energy(const Fitness& fitness) {
  return 1e6 * static_cast<double>(fitness.errors + fitness.warnings) -
         fitness.worst_slack_us + 100.0 * fitness.peak_busload +
         10.0 * static_cast<double>(fitness.deployment);
}

std::map<std::size_t, std::uint32_t> assign_can_ids(FitnessEvaluator& evaluator,
                                                    std::size_t bus) {
  evaluator.evaluate();
  const VehicleModel& model = evaluator.model();
  const std::vector<std::size_t> frames = renumberable_on_bus(evaluator, bus);
  std::map<std::size_t, std::uint32_t> assignment;
  if (frames.size() < 2) return assignment;

  std::vector<std::uint32_t> pool;
  for (const std::size_t f : frames) pool.push_back(model.frames[f].id);
  std::sort(pool.begin(), pool.end());

  const auto jitter_of = [&](std::size_t f) {
    const FrameModel& frame = model.frames[f];
    if (!frame.routed) return 0.0;
    return evaluator.frame_bounds()[frame.source_frame].e2e_s + model.gateway_delay_s;
  };

  // Audsley's lowest-priority-first argument: whether a message is
  // schedulable with the lowest remaining priority depends only on the SET
  // of messages above it, so priorities can be fixed bottom-up, trying the
  // longest-period (least urgent) messages first at each level.
  std::vector<std::size_t> unassigned = frames;
  for (std::size_t level = pool.size(); level-- > 0;) {
    const std::uint32_t id = pool[level];
    std::vector<std::size_t> candidates = unassigned;
    std::sort(candidates.begin(), candidates.end(),
              [&model](std::size_t a, std::size_t b) {
                if (model.frames[a].period_s != model.frames[b].period_s)
                  return model.frames[a].period_s > model.frames[b].period_s;
                return model.frames[a].base_id > model.frames[b].base_id;
              });
    std::size_t chosen = candidates.front();
    for (const std::size_t candidate : candidates) {
      // Trial assignment: candidate at this (lowest remaining) id, the rest
      // of the unassigned set on the remaining ids in ascending order.
      std::vector<network::CanMessageSpec> specs;
      std::size_t next_free = 0;
      for (const std::size_t f : unassigned) {
        network::CanMessageSpec spec;
        spec.id = f == candidate ? id : pool[next_free++];
        spec.payload_bytes = model.frames[f].payload_bytes;
        spec.period_s = model.frames[f].period_s;
        spec.jitter_s = jitter_of(f);
        specs.push_back(spec);
      }
      for (const auto& [f, assigned_id] : assignment) {
        network::CanMessageSpec spec;
        spec.id = assigned_id;
        spec.payload_bytes = model.frames[f].payload_bytes;
        spec.period_s = model.frames[f].period_s;
        spec.jitter_s = jitter_of(f);
        specs.push_back(spec);
      }
      const std::uint32_t trial_id = id;
      bool schedulable = false;
      for (const network::CanResponseTime& response :
           network::can_response_times(specs, model.buses[bus].bit_rate_bps))
        if (response.id == trial_id) schedulable = response.schedulable;
      if (schedulable) {
        chosen = candidate;
        break;
      }
    }
    assignment[chosen] = id;
    unassigned.erase(std::find(unassigned.begin(), unassigned.end(), chosen));
    pool.resize(level);  // ids below `level` remain for the frames above
  }
  return assignment;
}

std::map<std::uint32_t, std::size_t> rm_fr_slots(const VehicleModel& model,
                                                 std::size_t bus) {
  const auto& current = model.buses[bus].fr_static_slot;
  // Period per slot-owning id; ids whose frame moved away sort last.
  std::vector<std::pair<double, std::uint32_t>> order;
  for (const auto& [id, slot] : current) {
    double period_s = std::numeric_limits<double>::infinity();
    for (const FrameModel& frame : model.frames)
      if (frame.bus == bus && frame.id == id) period_s = frame.period_s;
    order.emplace_back(period_s, id);
  }
  std::sort(order.begin(), order.end());  // period asc, ties by id asc
  std::map<std::uint32_t, std::size_t> out;
  for (std::size_t slot = 0; slot < order.size(); ++slot)
    out[order[slot].second] = slot;
  return out;
}

std::vector<std::pair<std::string, std::int64_t>> ffd_partition_windows(
    const VehicleModel& model) {
  const core::CockpitAppModel& app = model.app;
  std::vector<std::pair<std::string, std::int64_t>> windows;
  std::int64_t total = 0;
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
    const std::int64_t budget = std::max<std::int64_t>(demand, 1);
    windows.emplace_back(partition.name, budget);
    total += budget;
  }
  if (total > app.major_frame_us) return {};  // cannot fit: caller rolls back
  std::sort(windows.begin(), windows.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return windows;
}

SynthesisResult synthesize(const config::ScenarioSpec& input,
                           const SynthesisOptions& options) {
  input.validate();
  SynthesisResult result;
  result.seed = options.seed;
  result.iters = options.iters;

  // --- Phase A: structural repair along a descending load ladder ------------
  // A scenario can be architecturally infeasible at its requested load (no
  // placement/priority choice helps when a routed frame's upstream bound
  // alone exceeds its period), so the synthesizer also searches the capacity
  // axis: highest load first, stepping down until the repaired design passes
  // every check. The floor is the nominal load (or the requested one when
  // the user asked for less than nominal).
  static constexpr double kLadder[] = {1.0,  0.75, 0.6,   0.5,  0.4,  0.3, 0.25,
                                       0.2,  0.15, 0.125, 0.1,  0.075, 0.05};
  const double requested = input.network.load_scale;
  const double floor = std::min(requested, 1.0);
  std::unique_ptr<Design> best;
  double best_energy = std::numeric_limits<double>::infinity();
  double last_ls = -1.0;
  for (const double factor : kLadder) {
    const double ls = std::max(requested * factor, floor);
    if (ls == last_ls) continue;
    last_ls = ls;
    config::ScenarioSpec rung = input;
    rung.network.load_scale = ls;
    auto design = std::make_unique<Design>(repair(rung));
    const Fitness fitness = design->eval.evaluate();
    ++result.ladder_steps;
    if (energy(fitness) < best_energy) {
      best_energy = energy(fitness);
      best = std::move(design);
    }
    if (best->eval.evaluate().feasible()) break;
    if (ls == floor) break;
  }
  Design current = std::move(*best);
  if (options.cross_check) current.eval.set_cross_check(true);
  Fitness current_fitness = current.eval.evaluate();
  double current_energy = energy(current_fitness);

  config::ScenarioSpec best_spec = current.spec;
  Fitness best_fitness = current_fitness;
  best_energy = current_energy;
  pareto_insert(result.pareto, current_fitness, true);

  // --- Phase B: seeded annealing over the architecture moves ----------------
  // All RNG draws happen here on the coordinator; workers only score copies
  // into per-index slots, so the result is byte-identical for any --jobs.
  util::Rng rng(options.seed);
  util::WorkerPool pool(options.jobs);
  constexpr int kCandidatesPerRound = 8;
  double temperature = 1000.0;
  for (int round = 0; round < options.iters; ++round) {
    std::vector<Move> moves(kCandidatesPerRound);
    for (Move& move : moves) move = draw_move(rng, current.eval);

    struct Slot {
      Fitness fitness;
      std::uint64_t passes = 0;
      bool valid = false;
    };
    std::vector<Slot> slots(moves.size());
    pool.run(static_cast<int>(moves.size()), [&](int i) {
      try {
        FitnessEvaluator trial = current.eval;  // copy-evaluate, master untouched
        const std::uint64_t before = trial.bus_pass_evals();
        apply_move(trial, nullptr, moves[static_cast<std::size_t>(i)]);
        slots[static_cast<std::size_t>(i)].fitness = trial.evaluate();
        slots[static_cast<std::size_t>(i)].passes = trial.bus_pass_evals() - before;
        slots[static_cast<std::size_t>(i)].valid = true;
      } catch (...) {
        slots[static_cast<std::size_t>(i)].valid = false;
      }
    });

    int chosen = -1;
    double chosen_energy = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].valid) continue;
      result.moves_evaluated += 1;
      result.bus_pass_evals += slots[i].passes;
      pareto_insert(result.pareto, slots[i].fitness, false);
      const double e = energy(slots[i].fitness);
      if (e < chosen_energy) {
        chosen_energy = e;
        chosen = static_cast<int>(i);
      }
    }

    // Fixed draw count per round regardless of the branch taken.
    const double accept_draw = rng.uniform();
    if (chosen >= 0 && moves[static_cast<std::size_t>(chosen)].kind != Move::Kind::kNone) {
      const double delta = chosen_energy - current_energy;
      if (delta <= 0.0 || accept_draw < std::exp(-delta / temperature)) {
        apply_move(current.eval, &current.spec, moves[static_cast<std::size_t>(chosen)]);
        current_fitness = current.eval.evaluate();
        current_energy = energy(current_fitness);
        ++result.moves_accepted;
        pareto_insert(result.pareto, current_fitness, true);
        if (current_energy < best_energy) {
          best_energy = current_energy;
          best_fitness = current_fitness;
          best_spec = current.spec;
        }
      }
    }
    temperature *= 0.97;
  }

  result.spec = std::move(best_spec);
  result.fitness = best_fitness;
  result.feasible = best_fitness.feasible();
  result.load_scale = result.spec.network.load_scale;
  result.bus_pass_evals += current.eval.bus_pass_evals();

  std::sort(result.pareto.begin(), result.pareto.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.fitness.worst_slack_us != b.fitness.worst_slack_us)
                return a.fitness.worst_slack_us > b.fitness.worst_slack_us;
              if (a.fitness.peak_busload != b.fitness.peak_busload)
                return a.fitness.peak_busload < b.fitness.peak_busload;
              return a.fitness.deployment < b.fitness.deployment;
            });

  // --- The E19 contract: the emitted spec IS the evaluated design -----------
  // Re-extract the synthesized scenario from scratch and require the fresh
  // analysis to agree with the search's bookkeeping; any divergence means
  // the spec/evaluator mirror lied and the artifact cannot be trusted.
  FitnessEvaluator fresh(analysis::extract_model(result.spec));
  if (!(fresh.evaluate() == result.fitness))
    throw std::logic_error(
        "synthesize: spec/evaluator mirror diverged — re-extracted fitness "
        "differs from the searched design");
  return result;
}

void write_synthesis_json(const SynthesisResult& result, std::ostream& out) {
  out << "{\n";
  out << "  \"scenario\": \"" << util::json_escape(result.spec.name) << "\",\n";
  out << "  \"seed\": " << result.seed << ",\n";
  out << "  \"iters\": " << result.iters << ",\n";
  out << "  \"feasible\": " << (result.feasible ? "true" : "false") << ",\n";
  out << "  \"load_scale\": " << config::format_double(result.load_scale) << ",\n";
  out << "  \"can_bit_rate\": " << config::format_double(result.spec.network.can_bit_rate)
      << ",\n";
  out << "  \"ladder_steps\": " << result.ladder_steps << ",\n";
  out << "  \"moves_evaluated\": " << result.moves_evaluated << ",\n";
  out << "  \"moves_accepted\": " << result.moves_accepted << ",\n";
  out << "  \"bus_pass_evals\": " << result.bus_pass_evals << ",\n";
  out << "  \"fitness\": ";
  write_fitness_json(result.fitness, out);
  out << ",\n";
  out << "  \"pareto\": [";
  for (std::size_t i = 0; i < result.pareto.size(); ++i) {
    out << (i == 0 ? "\n    " : ",\n    ");
    out << "{\"accepted\": " << (result.pareto[i].accepted ? "true" : "false")
        << ", \"fitness\": ";
    write_fitness_json(result.pareto[i].fitness, out);
    out << "}";
  }
  out << (result.pareto.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
}

std::string synthesis_json(const SynthesisResult& result) {
  std::ostringstream out;
  write_synthesis_json(result, out);
  return out.str();
}

}  // namespace ev::synthesis

/// \file fitness.h
/// Incremental fitness core of the design-space synthesizer. The monolithic
/// analyze() pass is split into string-free numeric computations (per-bus
/// bounds, per-ECU RTA, wiring lints) whose results are memoized per entity;
/// a FitnessEvaluator holds one mutable VehicleModel mirror and, after each
/// candidate move, re-evaluates only the entities the move touched (plus
/// their gateway-routed downstream closure). Rendering those memoized
/// outcomes reproduces analyze()'s report byte-identically — the evaluator
/// IS the analyzer, analyze() is one full evaluation — so synthesis search
/// and `evsys check` can never disagree about a design.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ev/analysis/diagnostics.h"
#include "ev/analysis/model.h"
#include "ev/network/can.h"
#include "ev/scheduling/response_time.h"

namespace ev::analysis {

/// Per-frame bound state across the fixed-point bus passes.
struct FrameBound {
  double e2e_s = 0.0;  ///< Send-to-delivery bound incl. upstream legs.
  bool valid = false;  ///< False when the protocol rejects the frame.

  friend bool operator==(const FrameBound&, const FrameBound&) = default;
};

/// Numeric (string-free) finding of one bus pass; rendered on demand.
enum class BusIssueKind : std::uint8_t {
  kCanPayload,         ///< error: payload exceeds the 8-byte CAN limit.
  kCanUnschedulable,   ///< error: worst case exceeds the period.
  kLinNoSlot,          ///< error: id missing from the schedule table.
  kLinOversampled,     ///< warning: period beats the schedule cycle.
  kFrDynamicOverflow,  ///< error: frame exceeds the dynamic segment.
  kFrOversampled,      ///< warning: period beats the communication cycle.
};

struct BusIssue {
  BusIssueKind kind = BusIssueKind::kCanPayload;
  std::size_t frame = 0;  ///< Index into VehicleModel::frames.
  double bound = 0.0;     ///< As reported in the rendered diagnostic.

  friend bool operator==(const BusIssue&, const BusIssue&) = default;
};

/// Memoized numeric result of one bus.
struct BusOutcome {
  double load = 0.0;            ///< The bus.load info figure.
  bool overloaded = false;      ///< bus.overload fires.
  double overload_value = 0.0;  ///< Figure of the overload check (for
                                ///< FlexRay the dynamic-segment ratio).
  std::vector<BusIssue> issues;

  friend bool operator==(const BusOutcome&, const BusOutcome&) = default;
};

/// Memoized numeric result of the cockpit ECU.
struct EcuOutcome {
  std::int64_t budget_sum = 0;
  bool frame_overflow = false;
  std::vector<scheduling::FpResponse> windows;  ///< Empty on overflow.
  std::vector<std::int64_t> partition_demand;   ///< Per partition, in order.

  friend bool operator==(const EcuOutcome&, const EcuOutcome&) = default;
};

/// Probabilistic deadline-miss figures of one CAN frame: the Broster-style
/// R(k) ladder collapsed to the largest tolerable error count and the
/// resulting P(response > period) upper bound (see prob.h).
struct FrameMissBound {
  std::size_t frame = 0;     ///< Index into VehicleModel::frames.
  int tolerable_errors = 0;  ///< Largest k with R(k) <= period; -1 when the
                             ///< frame is unschedulable even error-free.
  double response_at_kmax_s = 0.0;  ///< R(k_max) (R(0) when k_max < 0).
  double miss_probability = 0.0;    ///< Upper bound on P(response > period).

  friend bool operator==(const FrameMissBound&, const FrameMissBound&) = default;
};

/// Memoized probabilistic outcome of one bus. Only armed CAN buses carry
/// frame entries; every other bus renders no prob.* diagnostics at all,
/// which is what keeps the zero-error-rate report byte-identical to the
/// deterministic pass.
struct ProbOutcome {
  network::CanErrorModel model;  ///< derive_error_models; all-zero is unarmed.
  std::vector<FrameMissBound> frames;

  friend bool operator==(const ProbOutcome&, const ProbOutcome&) = default;
};

/// The scalarized design quality the synthesizer optimizes. feasible() is
/// exactly `evsys check` exit code 0 (no errors, no warnings).
struct Fitness {
  std::size_t errors = 0;
  std::size_t warnings = 0;
  /// Minimum timing slack [us] over every deadline-checked activity: CAN
  /// frames (period - bound, negative when unschedulable) and partition
  /// windows (major frame - response). State-semantics buses (LIN, FlexRay
  /// static, MOST) have no deadline and contribute nothing.
  double worst_slack_us = 0.0;
  /// Highest per-bus load figure (for FlexRay the worse of total load and
  /// dynamic-segment ratio).
  double peak_busload = 0.0;
  /// Deployment size: buses carrying at least one frame + partition count.
  std::size_t deployment = 0;

  [[nodiscard]] bool feasible() const { return errors == 0 && warnings == 0; }

  friend bool operator==(const Fitness&, const Fitness&) = default;
};

/// Incremental analyzer over one mutable VehicleModel. Mutations mirror
/// exactly what re-extracting a spec with the corresponding arch override
/// would produce, and mark the touched entities dirty; evaluate() then
/// recomputes only those (full fixed-point semantics preserved by dirtying
/// the routed-frame downstream closure). Copyable: the synthesizer scores a
/// candidate by copy-assigning the master into a reused trial evaluator,
/// applying one move, and evaluating.
class FitnessEvaluator {
 public:
  explicit FitnessEvaluator(VehicleModel model);

  [[nodiscard]] const VehicleModel& model() const noexcept { return model_; }

  // --- candidate moves (mirror of the arch override knobs) -----------------
  /// Both CAN buses run at one rate (network.can_bit_rate).
  void set_can_bit_rate(double bit_rate_bps);
  /// Places frames[frame] on bus index `to_bus` (caller checks movable).
  void move_frame(std::size_t frame, std::size_t to_bus);
  /// Renumbers frames[frame] to `new_id`, keeping gateway route match /
  /// translated ids in sync (caller checks id_mutable and collisions).
  void renumber_frame(std::size_t frame, std::uint32_t new_id);
  /// Replaces the chassis static-slot map (a permutation of the same ids).
  void set_fr_slots(const std::map<std::uint32_t, std::size_t>& id_to_slot);
  /// Reorders/re-budgets the cockpit partitions; `windows` lists every
  /// partition name exactly once in the new window order.
  void set_partition_windows(
      const std::vector<std::pair<std::string, std::int64_t>>& windows);

  /// Recomputes everything dirty and returns the aggregated fitness.
  const Fitness& evaluate();

  /// Renders the full report from the memoized outcomes — byte-identical to
  /// analyze() of the current model. Implies evaluate().
  [[nodiscard]] Report report();

  /// When on, every evaluate() re-runs a from-scratch evaluation and throws
  /// std::logic_error if any memoized outcome diverges from it.
  void set_cross_check(bool on) noexcept { cross_check_ = on; }

  /// Arms the probabilistic pass: derives per-bus error models from the
  /// model's fault events and from then on keeps a memoized ProbOutcome per
  /// bus inside the same dirty-closure re-evaluation; report() appends the
  /// prob.* rules. With no armed error model nothing is emitted and the
  /// report stays byte-identical to the deterministic pass.
  void set_probabilistic(bool on);
  [[nodiscard]] bool probabilistic() const noexcept { return prob_enabled_; }
  /// Memoized probabilistic outcome of one bus as of the last evaluate().
  /// Only meaningful after set_probabilistic(true).
  [[nodiscard]] const ProbOutcome& prob_outcome(std::size_t bus) const {
    return prob_outcomes_[bus];
  }
  /// Per-bus error models the probabilistic pass evaluates against (empty
  /// unless set_probabilistic(true)).
  [[nodiscard]] const std::vector<network::CanErrorModel>& error_models()
      const noexcept {
    return error_models_;
  }

  /// Number of single-bus numeric passes executed so far (3 per dirty bus
  /// per evaluation) — the effort figure bench E23 compares against the
  /// full-recompute floor.
  [[nodiscard]] std::uint64_t bus_pass_evals() const noexcept { return bus_pass_evals_; }

  /// Frame indices on each bus, maintained across moves (readout for
  /// synthesis heuristics).
  [[nodiscard]] const std::vector<std::size_t>& frames_on_bus(std::size_t bus) const {
    return per_bus_[bus];
  }
  /// Settled per-frame bounds of the last evaluate().
  [[nodiscard]] const std::vector<FrameBound>& frame_bounds() const noexcept {
    return bounds_;
  }
  /// Memoized numeric outcome of one bus as of the last evaluate().
  [[nodiscard]] const BusOutcome& bus_outcome(std::size_t bus) const {
    return bus_outcomes_[bus];
  }
  /// Memoized ECU outcome as of the last evaluate().
  [[nodiscard]] const EcuOutcome& ecu_outcome() const noexcept { return ecu_; }

 private:
  void mark_bus_dirty(std::size_t bus);
  void recompute();
  void aggregate();
  void check_against_fresh();

  VehicleModel model_;
  std::vector<std::vector<std::size_t>> per_bus_;
  std::vector<FrameBound> bounds_;
  std::vector<BusOutcome> bus_outcomes_;
  std::vector<ProbOutcome> prob_outcomes_;
  std::vector<network::CanErrorModel> error_models_;
  EcuOutcome ecu_;
  std::vector<Diagnostic> wiring_;
  Fitness fitness_;
  std::vector<char> bus_dirty_;
  bool ecu_dirty_ = true;
  bool wiring_dirty_ = true;
  bool any_dirty_ = true;
  bool cross_check_ = false;
  bool prob_enabled_ = false;
  std::uint64_t bus_pass_evals_ = 0;
};

}  // namespace ev::analysis

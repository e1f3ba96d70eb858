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
#include <utility>
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

/// Working storage of the CAN passes: the RTA scratch, the message set of
/// one bus with its id index, and the probabilistic ladder's per-message
/// arrays. The evaluator that runs the passes owns one, so a pass repeated
/// thousands of times stops allocating once the buffers have grown. It
/// holds nothing from one pass to the next, which is why copying or
/// assigning an evaluator gives the copy empty buffers of its own instead
/// of copying these.
struct BusPassScratch {
  network::CanRtaScratch rta;
  std::vector<network::CanMessageSpec> specs;
  std::vector<std::size_t> spec_frame;  ///< Frame of each message in specs.
  std::vector<std::pair<std::uint32_t, std::size_t>> by_id;  ///< (id, message), sorted.
  std::vector<int> kmax;
  std::vector<double> r_kmax;
  std::vector<double> r_zero;

  BusPassScratch() = default;
  BusPassScratch(const BusPassScratch& /*other*/) noexcept {}
  BusPassScratch& operator=(const BusPassScratch& /*other*/) noexcept { return *this; }
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
/// the routed-frame downstream closure). The synthesizer scores a candidate
/// on the master evaluator itself: begin_trial(), one move, evaluate(),
/// end_trial() puts the master back, and the round's winner is adopted
/// without evaluating it again (adopt_kept()).
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

  // --- scoring a candidate in place ----------------------------------------
  /// Opens a trial: the moves and evaluate() calls that follow work as
  /// usual, and end_trial() takes them back. Trials do not nest, and only
  /// moves and evaluate() may run inside one. Throws std::logic_error when a
  /// trial is already open.
  void begin_trial();
  /// Closes the trial. The model and every memoized outcome, the pass
  /// counter included, are again as they were at begin_trial(). With
  /// \p keep, the trial's memoized outcomes are set aside for adopt_kept(),
  /// replacing any kept before.
  void end_trial(bool keep);
  /// Call after re-applying, outside a trial, the same moves the kept trial
  /// made: the evaluator takes the kept outcomes instead of evaluating
  /// again, so it ends exactly as the trial did, pass counter included.
  /// With set_cross_check on, the adopted state is checked against a
  /// from-scratch evaluation.
  void adopt_kept();

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
    return memo_.prob_outcomes[bus];
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
  [[nodiscard]] std::uint64_t bus_pass_evals() const noexcept {
    return memo_.bus_pass_evals;
  }

  /// Frame indices on each bus, maintained across moves (readout for
  /// synthesis heuristics).
  [[nodiscard]] const std::vector<std::size_t>& frames_on_bus(std::size_t bus) const {
    return memo_.per_bus[bus];
  }
  /// Settled per-frame bounds of the last evaluate().
  [[nodiscard]] const std::vector<FrameBound>& frame_bounds() const noexcept {
    return memo_.bounds;
  }
  /// Memoized numeric outcome of one bus as of the last evaluate().
  [[nodiscard]] const BusOutcome& bus_outcome(std::size_t bus) const {
    return memo_.bus_outcomes[bus];
  }
  /// Memoized ECU outcome as of the last evaluate().
  [[nodiscard]] const EcuOutcome& ecu_outcome() const noexcept { return memo_.ecu; }

 private:
  /// Everything besides the model that a move or evaluate() changes: what a
  /// trial saves, restores and keeps.
  struct Memo {
    std::vector<std::vector<std::size_t>> per_bus;
    std::vector<FrameBound> bounds;
    std::vector<BusOutcome> bus_outcomes;
    std::vector<ProbOutcome> prob_outcomes;
    EcuOutcome ecu;
    std::vector<Diagnostic> wiring;
    Fitness fitness;
    std::vector<char> bus_dirty;
    bool ecu_dirty = true;
    bool wiring_dirty = true;
    bool any_dirty = true;
    std::uint64_t bus_pass_evals = 0;
  };
  /// The model fields the open trial overwrote, with their values from
  /// before. Frame, route and bit-rate edits are undone newest first; the
  /// slot maps and the partition list are saved whole on their first edit.
  struct Journal {
    struct FrameEdit {
      std::size_t frame = 0;
      std::size_t bus = 0;
      std::uint32_t id = 0;
      bool id_mutable = false;
    };
    std::vector<FrameEdit> frames;
    std::vector<std::pair<std::size_t, RouteModel>> routes;
    std::vector<std::pair<std::size_t, double>> bit_rates;
    std::vector<std::map<std::uint32_t, std::size_t>> fr_slots;  ///< Per bus.
    std::vector<char> fr_slots_saved;                            ///< Per bus.
    std::vector<core::PartitionModel> partitions;
    bool partitions_saved = false;
  };

  void mark_bus_dirty(std::size_t bus);
  void journal_frame(std::size_t frame);
  void recompute();
  void aggregate();
  void check_against_fresh();

  VehicleModel model_;
  Memo memo_;
  std::vector<network::CanErrorModel> error_models_;
  bool cross_check_ = false;
  bool prob_enabled_ = false;
  BusPassScratch scratch_;
  // Trial state: open flag, the journal, the memo as of begin_trial(), and
  // the memo a closed trial set aside for adopt_kept().
  bool trial_open_ = false;
  bool has_kept_ = false;
  Journal journal_;
  Memo saved_;
  Memo kept_;
};

}  // namespace ev::analysis

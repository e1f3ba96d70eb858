#include "ev/analysis/fitness.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "ev/analysis/prob.h"
#include "passes.h"

namespace ev::analysis {
namespace {

constexpr double kSecondsToUs = 1e6;

}  // namespace

FitnessEvaluator::FitnessEvaluator(VehicleModel model) : model_(std::move(model)) {
  memo_.per_bus.resize(model_.buses.size());
  for (std::size_t f = 0; f < model_.frames.size(); ++f)
    memo_.per_bus[model_.frames[f].bus].push_back(f);
  memo_.bounds.resize(model_.frames.size());
  memo_.bus_outcomes.resize(model_.buses.size());
  memo_.bus_dirty.assign(model_.buses.size(), 1);
}

void FitnessEvaluator::mark_bus_dirty(std::size_t bus) {
  std::vector<char>& dirty = memo_.bus_dirty;
  dirty[bus] = 1;
  memo_.any_dirty = true;
  // Routed frames carry their source bound as release jitter: dirtying a bus
  // invalidates every bus a gateway route feeds from it, transitively.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const RouteModel& route : model_.routes)
      if (dirty[route.from_bus] && !dirty[route.to_bus]) {
        dirty[route.to_bus] = 1;
        changed = true;
      }
  }
}

void FitnessEvaluator::journal_frame(std::size_t frame) {
  if (!trial_open_) return;
  const FrameModel& f = model_.frames[frame];
  journal_.frames.push_back({frame, f.bus, f.id, f.id_mutable});
}

void FitnessEvaluator::set_can_bit_rate(double bit_rate_bps) {
  for (std::size_t b = 0; b < model_.buses.size(); ++b)
    if (model_.buses[b].protocol == Protocol::kCan) {
      if (trial_open_) journal_.bit_rates.emplace_back(b, model_.buses[b].bit_rate_bps);
      model_.buses[b].bit_rate_bps = bit_rate_bps;
      mark_bus_dirty(b);
    }
}

void FitnessEvaluator::move_frame(std::size_t frame, std::size_t to_bus) {
  FrameModel& f = model_.frames[frame];
  const std::size_t from_bus = f.bus;
  if (from_bus == to_bus) return;
  journal_frame(frame);
  std::vector<std::size_t>& old_list = memo_.per_bus[from_bus];
  old_list.erase(std::find(old_list.begin(), old_list.end(), frame));
  // analyze() builds per-bus lists in ascending frame order; keep that
  // invariant so the rendered report stays byte-identical.
  std::vector<std::size_t>& new_list = memo_.per_bus[to_bus];
  new_list.insert(std::upper_bound(new_list.begin(), new_list.end(), frame), frame);
  f.bus = to_bus;
  f.id_mutable = model_.buses[to_bus].protocol == Protocol::kCan;
  mark_bus_dirty(from_bus);
  mark_bus_dirty(to_bus);
  memo_.wiring_dirty = true;  // gw.unfed_route keys on (bus, id) of local sources
}

void FitnessEvaluator::renumber_frame(std::size_t frame, std::uint32_t new_id) {
  FrameModel& f = model_.frames[frame];
  const std::uint32_t old_id = f.id;
  if (old_id == new_id) return;
  // Keep the gateway table consistent, exactly as re-extraction with the
  // arch.frame_id override would: a local source drags its matching route's
  // match_id along, a routed copy drags the translated_id.
  for (std::size_t r = 0; r < model_.routes.size(); ++r) {
    RouteModel& route = model_.routes[r];
    const bool drag_match = !f.routed && route.from_bus == f.bus && route.match_id == old_id;
    const bool drag_translated =
        f.routed && route.to_bus == f.bus && route.translated_id == old_id;
    if (trial_open_ && (drag_match || drag_translated))
      journal_.routes.emplace_back(r, route);
    if (drag_match) route.match_id = new_id;
    if (drag_translated) route.translated_id = new_id;
  }
  journal_frame(frame);
  f.id = new_id;
  mark_bus_dirty(f.bus);
  memo_.wiring_dirty = true;
}

void FitnessEvaluator::set_fr_slots(const std::map<std::uint32_t, std::size_t>& id_to_slot) {
  for (std::size_t b = 0; b < model_.buses.size(); ++b)
    if (model_.buses[b].protocol == Protocol::kFlexRay) {
      if (id_to_slot.size() != model_.buses[b].fr_static_slot.size())
        throw std::logic_error("set_fr_slots: slot map must keep every static id");
      if (trial_open_ && !journal_.fr_slots_saved[b]) {
        journal_.fr_slots[b] = model_.buses[b].fr_static_slot;
        journal_.fr_slots_saved[b] = 1;
      }
      model_.buses[b].fr_static_slot = id_to_slot;
      mark_bus_dirty(b);
    }
}

void FitnessEvaluator::set_partition_windows(
    const std::vector<std::pair<std::string, std::int64_t>>& windows) {
  std::vector<core::PartitionModel>& partitions = model_.app.partitions;
  if (windows.size() != partitions.size())
    throw std::logic_error("set_partition_windows: must list every partition");
  if (trial_open_ && !journal_.partitions_saved) {
    journal_.partitions = partitions;
    journal_.partitions_saved = true;
  }
  std::vector<core::PartitionModel> reordered;
  reordered.reserve(partitions.size());
  for (const auto& [name, budget_us] : windows) {
    const auto it = std::find_if(
        partitions.begin(), partitions.end(),
        [&name](const core::PartitionModel& p) { return p.name == name; });
    if (it == partitions.end())
      throw std::logic_error("set_partition_windows: unknown or repeated partition '" +
                             name + "'");
    core::PartitionModel p = std::move(*it);
    partitions.erase(it);
    p.budget_us = budget_us;
    reordered.push_back(std::move(p));
  }
  partitions = std::move(reordered);
  memo_.ecu_dirty = true;
  memo_.wiring_dirty = true;  // health.uncovered_partition iterates partitions
}

void FitnessEvaluator::set_probabilistic(bool on) {
  if (on == prob_enabled_) return;
  prob_enabled_ = on;
  if (!on) {
    memo_.prob_outcomes.clear();
    error_models_.clear();
    return;
  }
  error_models_ = derive_error_models(model_);
  memo_.prob_outcomes.assign(model_.buses.size(), ProbOutcome{});
  // Armed buses need a probabilistic outcome; the pass piggybacks on the
  // dirty-closure recompute, so dirty them (their deterministic outcomes are
  // recomputed too — idempotent, and only on this one transition).
  for (std::size_t b = 0; b < model_.buses.size(); ++b)
    if (error_models_[b].armed()) mark_bus_dirty(b);
}

void FitnessEvaluator::begin_trial() {
  if (trial_open_) throw std::logic_error("begin_trial: a trial is already open");
  trial_open_ = true;
  saved_ = memo_;
  journal_.frames.clear();
  journal_.routes.clear();
  journal_.bit_rates.clear();
  journal_.fr_slots.resize(model_.buses.size());
  journal_.fr_slots_saved.assign(model_.buses.size(), 0);
  journal_.partitions_saved = false;
}

void FitnessEvaluator::end_trial(bool keep) {
  if (!trial_open_) throw std::logic_error("end_trial: no trial is open");
  trial_open_ = false;
  for (auto it = journal_.frames.rbegin(); it != journal_.frames.rend(); ++it) {
    FrameModel& f = model_.frames[it->frame];
    f.bus = it->bus;
    f.id = it->id;
    f.id_mutable = it->id_mutable;
  }
  for (auto it = journal_.routes.rbegin(); it != journal_.routes.rend(); ++it)
    model_.routes[it->first] = it->second;
  for (auto it = journal_.bit_rates.rbegin(); it != journal_.bit_rates.rend(); ++it)
    model_.buses[it->first].bit_rate_bps = it->second;
  // Swapping puts the saved containers back and leaves the trial's ones in
  // the journal, whose storage the next trial's save reuses.
  for (std::size_t b = 0; b < journal_.fr_slots_saved.size(); ++b)
    if (journal_.fr_slots_saved[b])
      std::swap(model_.buses[b].fr_static_slot, journal_.fr_slots[b]);
  if (journal_.partitions_saved) std::swap(model_.app.partitions, journal_.partitions);
  if (keep) {
    std::swap(memo_, kept_);
    has_kept_ = true;
  }
  std::swap(memo_, saved_);
}

void FitnessEvaluator::adopt_kept() {
  if (trial_open_ || !has_kept_)
    throw std::logic_error("adopt_kept: no closed trial was kept");
  std::swap(memo_, kept_);
  has_kept_ = false;
  if (cross_check_) check_against_fresh();
}

const Fitness& FitnessEvaluator::evaluate() {
  if (memo_.any_dirty || memo_.ecu_dirty || memo_.wiring_dirty) {
    recompute();
    aggregate();
    if (cross_check_) check_against_fresh();
  }
  return memo_.fitness;
}

void FitnessEvaluator::recompute() {
  Memo& m = memo_;
  const std::size_t buses = m.bus_dirty.size();
  {
    // Frames on dirty buses restart from a blank bound (matches the zeroed
    // init of a full analysis); frames on clean buses keep their settled
    // bounds, which are exactly the fixed inputs the dirty passes need.
    for (std::size_t b = 0; b < buses; ++b)
      if (m.bus_dirty[b])
        for (const std::size_t f : m.per_bus[b]) m.bounds[f] = FrameBound{};
    // Same fixed-point discipline as the monolithic analyzer: three passes
    // in bus-index order settle every gateway chain in Fig. 1.
    for (int pass = 0; pass < 3; ++pass)
      for (std::size_t b = 0; b < buses; ++b) {
        if (!m.bus_dirty[b]) continue;
        BusOutcome outcome =
            passes::compute_bus(model_, b, m.per_bus[b], m.bounds, scratch_);
        ++m.bus_pass_evals;
        if (pass == 2) m.bus_outcomes[b] = std::move(outcome);
      }
    // The probabilistic pass reads the settled bounds, so it runs after the
    // fixed point — and only for the dirty closure: clean buses kept their
    // bounds, hence their memoized ProbOutcome is still exact.
    if (prob_enabled_)
      for (std::size_t b = 0; b < buses; ++b)
        if (m.bus_dirty[b])
          m.prob_outcomes[b] = passes::compute_prob_bus(model_, b, m.per_bus[b], m.bounds,
                                                        error_models_[b], scratch_);
    std::fill(m.bus_dirty.begin(), m.bus_dirty.end(), 0);
  }
  m.any_dirty = false;
  if (m.ecu_dirty) {
    m.ecu = passes::compute_ecu(model_);
    m.ecu_dirty = false;
  }
  if (m.wiring_dirty) {
    m.wiring = passes::compute_wiring(model_);
    m.wiring_dirty = false;
  }
}

void FitnessEvaluator::aggregate() {
  Fitness fit;
  double worst_slack_us = std::numeric_limits<double>::infinity();
  bool any_slack = false;
  const auto slack = [&worst_slack_us, &any_slack](double value) {
    worst_slack_us = std::min(worst_slack_us, value);
    any_slack = true;
  };

  // --- ECU -------------------------------------------------------------------
  const std::int64_t major = model_.app.major_frame_us;
  if (memo_.ecu.frame_overflow) {
    ++fit.errors;
    slack(static_cast<double>(major - memo_.ecu.budget_sum));
  }
  for (const scheduling::FpResponse& response : memo_.ecu.windows) {
    if (!response.schedulable) ++fit.errors;
    slack(static_cast<double>(major - response.response_us));
  }
  for (std::size_t i = 0; i < memo_.ecu.partition_demand.size(); ++i)
    if (memo_.ecu.partition_demand[i] > model_.app.partitions[i].budget_us) ++fit.errors;

  // --- buses -----------------------------------------------------------------
  for (std::size_t b = 0; b < model_.buses.size(); ++b) {
    const BusOutcome& outcome = memo_.bus_outcomes[b];
    if (outcome.overloaded) ++fit.errors;
    fit.peak_busload =
        std::max(fit.peak_busload, std::max(outcome.load, outcome.overload_value));
    for (const BusIssue& issue : outcome.issues) {
      switch (issue.kind) {
        case BusIssueKind::kCanPayload:
        case BusIssueKind::kLinNoSlot:
        case BusIssueKind::kFrDynamicOverflow:
          ++fit.errors;
          break;
        case BusIssueKind::kCanUnschedulable:
          ++fit.errors;
          slack(model_.frames[issue.frame].period_s * kSecondsToUs - issue.bound);
          break;
        case BusIssueKind::kLinOversampled:
        case BusIssueKind::kFrOversampled:
          ++fit.warnings;
          break;
      }
    }
    if (model_.buses[b].protocol == Protocol::kCan)
      for (const std::size_t f : memo_.per_bus[b])
        if (memo_.bounds[f].valid)
          slack((model_.frames[f].period_s - memo_.bounds[f].e2e_s) * kSecondsToUs);
    if (!memo_.per_bus[b].empty()) ++fit.deployment;
  }
  fit.deployment += model_.app.partitions.size();

  // --- wiring ----------------------------------------------------------------
  for (const Diagnostic& diagnostic : memo_.wiring) {
    if (diagnostic.severity == Severity::kError) ++fit.errors;
    if (diagnostic.severity == Severity::kWarning) ++fit.warnings;
  }

  fit.worst_slack_us = any_slack ? worst_slack_us : 0.0;
  memo_.fitness = fit;
}

Report FitnessEvaluator::report() {
  evaluate();
  Report report;
  report.scenario = model_.scenario;
  passes::render_ecu(model_, memo_.ecu, report);
  for (std::size_t b = 0; b < model_.buses.size(); ++b)
    passes::render_bus(model_, b, memo_.bus_outcomes[b], report);
  passes::render_frame_bounds(model_, memo_.per_bus, memo_.bounds, report);
  if (prob_enabled_)
    for (std::size_t b = 0; b < model_.buses.size(); ++b)
      passes::render_prob(model_, b, memo_.prob_outcomes[b], report);
  report.diagnostics.insert(report.diagnostics.end(), memo_.wiring.begin(),
                             memo_.wiring.end());
  report.sort();
  return report;
}

void FitnessEvaluator::check_against_fresh() {
  FitnessEvaluator fresh(model_);
  fresh.set_probabilistic(prob_enabled_);
  fresh.recompute();
  fresh.aggregate();
  const Memo& want = fresh.memo_;
  if (want.per_bus != memo_.per_bus)
    throw std::logic_error("fitness cross-check: per-bus frame lists diverged");
  if (want.bounds != memo_.bounds)
    throw std::logic_error("fitness cross-check: frame bounds diverged");
  if (want.bus_outcomes != memo_.bus_outcomes)
    throw std::logic_error("fitness cross-check: bus outcomes diverged");
  if (!(want.ecu == memo_.ecu))
    throw std::logic_error("fitness cross-check: ECU outcome diverged");
  if (want.wiring != memo_.wiring)
    throw std::logic_error("fitness cross-check: wiring diagnostics diverged");
  if (fresh.error_models_ != error_models_)
    throw std::logic_error("fitness cross-check: bus error models diverged");
  if (want.prob_outcomes != memo_.prob_outcomes)
    throw std::logic_error("fitness cross-check: probabilistic outcomes diverged");
  if (!(want.fitness == memo_.fitness))
    throw std::logic_error("fitness cross-check: aggregated fitness diverged");
}

}  // namespace ev::analysis

// Unit tests for the whole-vehicle static analyzer: negative paths that
// must surface as typed diagnostics (overloaded ECUs and buses, wiring
// mistakes, bad fault-plan targets), the exit-code mapping the CLI relies
// on, and the determinism of the JSON report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ev/analysis/analyzer.h"
#include "ev/analysis/diagnostics.h"
#include "ev/analysis/fitness.h"
#include "ev/analysis/model.h"
#include "ev/campaign/campaign.h"
#include "ev/config/scenario.h"
#include "ev/core/scenario.h"
#include "ev/fleet/simulation.h"

namespace {

using namespace ev::analysis;

// The city-commute configuration: every subsystem that silences a lint is
// enabled, no faults planned. Must analyze clean.
ev::config::ScenarioSpec clean_spec() {
  ev::config::ScenarioSpec spec;
  spec.name = "clean";
  spec.subsystems.obs = true;
  spec.subsystems.health = true;
  spec.subsystems.security = true;
  return spec;
}

// ------------------------------------------------------------ happy path ----

TEST(Analyzer, CleanScenarioHasBoundsButNoFindings) {
  const Report report = analyze_scenario(clean_spec());
  EXPECT_EQ(report.count(Severity::kError), 0u);
  EXPECT_EQ(report.count(Severity::kWarning), 0u);
  EXPECT_GT(report.count(Severity::kInfo), 20u);
  EXPECT_EQ(exit_code_for(report), 0);

  // Every Fig. 1 bus gets a worst-case end-to-end bound.
  for (const char* bus : {"body_lin", "comfort_can", "infotainment_most",
                          "safety_can", "chassis_flexray"}) {
    const Diagnostic* d = report.find("rta.bus", bus);
    ASSERT_NE(d, nullptr) << bus;
    EXPECT_GT(d->bound, 0.0) << bus;
  }
  // And the cockpit partitions get response times within the major frame.
  const Diagnostic* info = report.find("rta.partition", "cockpit-controller/information");
  ASSERT_NE(info, nullptr);
  EXPECT_GT(info->bound, 0.0);
}

TEST(Analyzer, ReportJsonIsDeterministic) {
  const Report report = analyze_scenario(clean_spec());
  const std::string a = report_json(report);
  const std::string b = report_json(analyze_scenario(clean_spec()));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"summary\""), std::string::npos);
}

// -------------------------------------------------------- overloaded ECU ----

TEST(Analyzer, OverloadedMajorFrameIsAnError) {
  ev::config::ScenarioSpec spec = clean_spec();
  spec.timing.middleware_frame_us = 10000;  // budgets sum to 12000 us
  const Report report = analyze_scenario(spec);
  EXPECT_TRUE(report.has_errors());
  ASSERT_NE(report.find("ecu.frame_overflow", "cockpit-controller"), nullptr);
  EXPECT_EQ(exit_code_for(report), 1);
}

TEST(Analyzer, OvercommittedPartitionIsAnError) {
  VehicleModel model = extract_model(clean_spec());
  ASSERT_FALSE(model.app.partitions.empty());
  ev::core::PartitionModel& part = model.app.partitions.front();
  // One runnable per frame demanding more than the whole window budget.
  part.runnables.push_back(ev::core::RunnableModel{
      "hog", model.app.major_frame_us, part.budget_us + 1000});
  const Report report = analyze(model);
  const std::string subject = model.app.ecu_name + "/" + part.name;
  ASSERT_NE(report.find("partition.overcommitted", subject), nullptr);
  EXPECT_EQ(exit_code_for(report), 1);
}

// -------------------------------------------------------- overloaded bus ----

TEST(Analyzer, SaturatedCanBusIsUnschedulable) {
  ev::config::ScenarioSpec spec = clean_spec();
  spec.network.load_scale = 20.0;  // 20x traffic swamps the 500 kbit/s CAN
  const Report report = analyze_scenario(spec);
  EXPECT_TRUE(report.has_errors());
  EXPECT_NE(report.find("bus.overload", "safety_can"), nullptr);
  // At least one safety frame blows past its period.
  bool unschedulable_frame = false;
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule_id == "rta.unschedulable" &&
        d.subject.find("safety_can/") == 0)
      unschedulable_frame = true;
  EXPECT_TRUE(unschedulable_frame);
  EXPECT_EQ(exit_code_for(report), 1);
}

TEST(Analyzer, OversizedCanPayloadIsAnError) {
  VehicleModel model = extract_model(clean_spec());
  // Bus 3 is the safety CAN in Fig. 1 order.
  ASSERT_EQ(model.buses.at(3).protocol, Protocol::kCan);
  FrameModel frame;
  frame.bus = 3;
  frame.id = 0x7FF;
  frame.payload_bytes = 12;  // classic CAN carries at most 8
  frame.period_s = 0.01;
  frame.description = "oversized";
  model.frames.push_back(frame);
  const Report report = analyze(model);
  ASSERT_NE(report.find("can.payload_size", "safety_can/0x7ff"), nullptr);
  EXPECT_EQ(exit_code_for(report), 1);
}

TEST(Analyzer, UnscheduledLinIdIsAnError) {
  VehicleModel model = extract_model(clean_spec());
  ASSERT_EQ(model.buses.at(0).protocol, Protocol::kLin);
  FrameModel frame;
  frame.bus = 0;
  frame.id = 0x3E;  // not in the master schedule table
  frame.payload_bytes = 2;
  frame.period_s = 0.1;
  frame.description = "unscheduled";
  model.frames.push_back(frame);
  const Report report = analyze(model);
  ASSERT_NE(report.find("lin.no_slot", "body_lin/0x03e"), nullptr);
  EXPECT_EQ(exit_code_for(report), 1);
}

TEST(Analyzer, FlexRayFrameBeyondDynamicSegmentIsAnError) {
  VehicleModel model = extract_model(clean_spec());
  ASSERT_EQ(model.buses.at(4).protocol, Protocol::kFlexRay);
  FrameModel frame;
  frame.bus = 4;
  frame.id = 0x1F0;  // no static slot -> dynamic segment
  frame.payload_bytes = 1000;  // transmission longer than the whole segment
  frame.period_s = 0.1;
  frame.description = "bulk dump";
  model.frames.push_back(frame);
  const Report report = analyze(model);
  ASSERT_NE(report.find("flexray.dynamic_overflow", "chassis_flexray/0x1f0"),
            nullptr);
  EXPECT_EQ(exit_code_for(report), 1);
}

// ----------------------------------------------------------- wiring lints ----

TEST(Analyzer, OrphanAndUnfedTopicsAreWarnings) {
  VehicleModel model = extract_model(clean_spec());
  ev::core::TopicModel orphan;
  orphan.id = 0x90;
  orphan.name = "debug.trace";
  orphan.payload_bytes = 8;
  orphan.publishers = {"information"};
  model.app.topics.push_back(orphan);
  ev::core::TopicModel unfed;
  unfed.id = 0x91;
  unfed.name = "nav.route";
  unfed.payload_bytes = 16;
  unfed.subscribers = {"hmi"};
  model.app.topics.push_back(unfed);

  const Report report = analyze(model);
  ASSERT_NE(report.find("pubsub.orphan_topic", "cockpit-controller/debug.trace"),
            nullptr);
  ASSERT_NE(report.find("pubsub.unfed_topic", "cockpit-controller/nav.route"),
            nullptr);
  EXPECT_FALSE(report.has_errors());
  EXPECT_EQ(exit_code_for(report), 3);
}

TEST(Analyzer, DisabledHealthMonitoringIsAWarningPerPartition) {
  ev::config::ScenarioSpec spec = clean_spec();
  spec.subsystems.health = false;
  const Report report = analyze_scenario(spec);
  EXPECT_EQ(report.count(Severity::kWarning), 2u);  // information + hmi
  EXPECT_NE(report.find("health.uncovered_partition",
                        "cockpit-controller/information"),
            nullptr);
  EXPECT_EQ(exit_code_for(report), 3);
}

TEST(Analyzer, FaultPlanNamingNonexistentTargetsIsAnError) {
  ev::config::ScenarioSpec spec = clean_spec();
  spec.subsystems.faults = true;
  spec.faults = {
      // Misspelt bus, missing partition, and a cell index beyond the pack.
      {1.0, ev::config::FaultKind::kBusDrop, "safty_can", 2.0},
      {2.0, ev::config::FaultKind::kPartitionCrash, "navigation", 0.0},
      {3.0, ev::config::FaultKind::kSensorStuck, "500", 4.2},
  };
  const Report report = analyze_scenario(spec);
  EXPECT_EQ(report.count(Severity::kError), 3u);
  for (const char* subject : {"fault[0]", "fault[1]", "fault[2]"})
    ASSERT_NE(report.find("fault.unknown_target", subject), nullptr) << subject;
  EXPECT_EQ(exit_code_for(report), 1);
}

TEST(Analyzer, ValidFaultTargetsPassClean) {
  ev::config::ScenarioSpec spec = clean_spec();
  spec.subsystems.faults = true;
  spec.faults = {
      {1.0, ev::config::FaultKind::kBusDrop, "safety_can", 2.0},
      {2.0, ev::config::FaultKind::kPartitionCrash, "hmi", 0.0},
      {3.0, ev::config::FaultKind::kSensorStuck, "17", 4.2},
  };
  const Report report = analyze_scenario(spec);
  EXPECT_EQ(report.count(Severity::kError), 0u);
}

// ---------------------------------------------------- report + exit codes ----

TEST(Diagnostics, ExitCodeMapsSeverities) {
  Report clean;
  EXPECT_EQ(exit_code_for(clean), 0);

  Report info_only;
  info_only.add(Severity::kInfo, "rta.bus", "safety_can", "bound", 1.0);
  EXPECT_EQ(exit_code_for(info_only), 0);

  Report warned = info_only;
  warned.add(Severity::kWarning, "pubsub.orphan_topic", "t", "orphan");
  EXPECT_EQ(exit_code_for(warned), 3);

  Report failed = warned;
  failed.add(Severity::kError, "bus.overload", "safety_can", "overload", 2.0);
  EXPECT_EQ(exit_code_for(failed), 1);
  EXPECT_TRUE(failed.has_errors());
}

TEST(Diagnostics, SortOrdersErrorsFirstThenRuleSubject) {
  Report report;
  report.add(Severity::kInfo, "rta.bus", "b", "info");
  report.add(Severity::kWarning, "pubsub.orphan_topic", "t", "warn");
  report.add(Severity::kError, "bus.overload", "z", "err2");
  report.add(Severity::kError, "bus.overload", "a", "err1");
  report.sort();
  ASSERT_EQ(report.diagnostics.size(), 4u);
  EXPECT_EQ(report.diagnostics[0].subject, "a");
  EXPECT_EQ(report.diagnostics[1].subject, "z");
  EXPECT_EQ(report.diagnostics[2].severity, Severity::kWarning);
  EXPECT_EQ(report.diagnostics[3].severity, Severity::kInfo);
}

TEST(Diagnostics, JsonEscapesAndFindsBySubject) {
  Report report;
  report.scenario = "quote\"and\\slash";
  report.add(Severity::kInfo, "rta.bus", "bus\n1", "tab\there", 0.5);
  const std::string json = report_json(report);
  EXPECT_NE(json.find("quote\\\"and\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("bus\\n1"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  EXPECT_EQ(report.find("rta.bus", "nope"), nullptr);
  ASSERT_NE(report.find("rta.bus", "bus\n1"), nullptr);
}

TEST(Diagnostics, JsonEscapesControlBytes) {
  // validate() admits control bytes in scenario.name; the report must still
  // be valid JSON, so they render as \u00xx escapes, never raw.
  Report report;
  report.scenario = "bad\x01name";
  report.add(Severity::kInfo, "rta.bus", "bus\x1f", "bell\a", 0.5);
  const std::string json = report_json(report);
  EXPECT_NE(json.find("\"scenario\": \"bad\\u0001name\""), std::string::npos);
  EXPECT_NE(json.find("bus\\u001f"), std::string::npos);
  EXPECT_NE(json.find("bell\\u0007"), std::string::npos);
  for (const char c : json)
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20) << int{c};
}

TEST(Diagnostics, EveryReportEscapesTheScenarioName) {
  // The run, campaign and fleet reports print the same user-chosen name.
  const std::string name = "bad\x01\"name";
  const std::string escaped = "bad\\u0001\\\"name";
  ev::core::ScenarioRunResult run;
  run.scenario = name;
  EXPECT_NE(ev::core::result_json(run).find(escaped), std::string::npos);
  ev::campaign::CampaignResult campaign;
  campaign.scenario = name;
  EXPECT_NE(ev::campaign::campaign_json(campaign).find(escaped), std::string::npos);
  ev::fleet::FleetResult fleet;
  fleet.name = name;
  EXPECT_NE(ev::fleet::fleet_report_json(fleet).find(escaped), std::string::npos);
}

// ------------------------------------------------- incremental fitness ------

// Frame index of a source frame by its Fig. 1 base id.
std::size_t frame_by_base(const VehicleModel& model, std::uint32_t base_id) {
  for (std::size_t f = 0; f < model.frames.size(); ++f)
    if (!model.frames[f].routed && model.frames[f].base_id == base_id) return f;
  ADD_FAILURE() << "no source frame with base id " << base_id;
  return 0;
}

TEST(FitnessEvaluator, OneFullEvaluationIsTheAnalyzer) {
  const VehicleModel model = extract_model(clean_spec());
  FitnessEvaluator evaluator(model);
  EXPECT_EQ(report_json(evaluator.report()), report_json(analyze(model)));
}

TEST(FitnessEvaluator, RepeatedEvaluationIsByteIdentical) {
  FitnessEvaluator evaluator(extract_model(clean_spec()));
  const std::string first = report_json(evaluator.report());
  // Again on the settled evaluator (all memoized), and on a fresh twin.
  EXPECT_EQ(report_json(evaluator.report()), first);
  FitnessEvaluator twin(extract_model(clean_spec()));
  EXPECT_EQ(report_json(twin.report()), first);
}

TEST(FitnessEvaluator, IncrementalMatchesFullAfterEveryMoveKind) {
  FitnessEvaluator evaluator(extract_model(clean_spec()));
  evaluator.evaluate();
  const auto expect_matches_full = [&](const char* what) {
    EXPECT_EQ(report_json(evaluator.report()), report_json(analyze(evaluator.model())))
        << what;
  };

  evaluator.move_frame(frame_by_base(evaluator.model(), 0x010), 1);
  expect_matches_full("move body frame 0x010 to comfort CAN");

  evaluator.renumber_frame(frame_by_base(evaluator.model(), 0x302), 0x320);
  expect_matches_full("renumber comfort frame 0x302 to 0x320");

  evaluator.set_can_bit_rate(800e3);
  expect_matches_full("raise the CAN bit rate");

  std::map<std::uint32_t, std::size_t> slots;
  for (const auto& [id, slot] : evaluator.model().buses[4].fr_static_slot)
    slots[id] = slot;
  std::swap(slots.at(0x100), slots.at(0x105));
  evaluator.set_fr_slots(slots);
  expect_matches_full("swap two chassis static slots");

  std::vector<std::pair<std::string, std::int64_t>> windows;
  for (const auto& partition : evaluator.model().app.partitions)
    windows.emplace_back(partition.name, partition.budget_us);
  std::reverse(windows.begin(), windows.end());
  evaluator.set_partition_windows(windows);
  expect_matches_full("reverse the partition window order");
}

TEST(FitnessEvaluator, EvaluationOrderDoesNotChangeTheReport) {
  // Same two moves, settled in one evaluation vs. one evaluation each.
  const VehicleModel model = extract_model(clean_spec());
  FitnessEvaluator batched(model);
  batched.move_frame(frame_by_base(model, 0x010), 1);
  batched.move_frame(frame_by_base(model, 0x011), 3);
  const std::string batched_json = report_json(batched.report());

  FitnessEvaluator stepped(model);
  stepped.move_frame(frame_by_base(model, 0x010), 1);
  stepped.evaluate();
  stepped.move_frame(frame_by_base(model, 0x011), 3);
  EXPECT_EQ(report_json(stepped.report()), batched_json);
}

TEST(FitnessEvaluator, MoveReanalyzesOnlyTheDirtyClosure) {
  FitnessEvaluator evaluator(extract_model(clean_spec()));
  evaluator.evaluate();
  const std::uint64_t settled = evaluator.bus_pass_evals();
  // Comfort -> safety move dirties the CAN buses plus their gateway-routed
  // downstream closure, but never the body LIN bus: fewer single-bus passes
  // than the 5-bus full recompute (3 passes per dirty bus).
  evaluator.move_frame(frame_by_base(evaluator.model(), 0x302), 3);
  evaluator.evaluate();
  const std::uint64_t delta = evaluator.bus_pass_evals() - settled;
  EXPECT_GT(delta, 0u);
  EXPECT_LT(delta, 15u);
}

TEST(FitnessEvaluator, CrossCheckModeAcceptsAMoveSequence) {
  FitnessEvaluator evaluator(extract_model(clean_spec()));
  evaluator.set_cross_check(true);  // throws std::logic_error on divergence
  evaluator.evaluate();
  evaluator.move_frame(frame_by_base(evaluator.model(), 0x012), 1);
  evaluator.evaluate();
  evaluator.renumber_frame(frame_by_base(evaluator.model(), 0x300), 0x330);
  evaluator.evaluate();
  evaluator.set_can_bit_rate(1e6);
  EXPECT_NO_THROW(evaluator.evaluate());
}

TEST(FitnessEvaluator, FitnessTracksFeasibilityAndSlack) {
  ev::config::ScenarioSpec spec = clean_spec();
  FitnessEvaluator clean(extract_model(spec));
  const Fitness good = clean.evaluate();
  EXPECT_TRUE(good.feasible());
  EXPECT_GT(good.worst_slack_us, 0.0);
  EXPECT_GT(good.peak_busload, 0.0);
  EXPECT_GT(good.deployment, 0u);

  spec.network.load_scale = 20.0;
  FitnessEvaluator saturated(extract_model(spec));
  const Fitness bad = saturated.evaluate();
  EXPECT_FALSE(bad.feasible());
  EXPECT_GT(bad.errors, 0u);
}

}  // namespace

// Experiment E24: probabilistic fault-aware CAN timing analysis
// cross-validated against fault-injection campaigns. `evsys check --prob`
// turns a scenario's bus.error_rate / bus.error_prob fault specs into
// per-frame deadline-miss probabilities via the Broster-style R(k) ladder
// (prob.h). Those are analytic upper bounds, so the same contract E19
// enforces for deterministic bounds must hold one level up: the observed
// per-frame miss *frequency* from seeded fault-injection campaigns may
// never exceed the analytic miss *probability* (within the Hoeffding
// confidence tolerance of the sample size). Each armed CAN bus runs as a
// standalone testbed (the shared ev::analysis::run_prob_testbed oracle) —
// every frame the analyzer models is sent on its period, the seeded
// CanErrorModel destroys transmissions, and every delivery later than one
// period counts as a miss. Any frequency above bound + tolerance is a
// soundness violation and fails the binary.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ev/analysis/analyzer.h"
#include "ev/analysis/oracle.h"
#include "ev/analysis/prob.h"
#include "ev/config/scenario.h"
#include "ev/network/can.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using ev::analysis::FrameMissBound;
using ev::analysis::FrameTally;
using ev::analysis::ProbOutcome;
using ev::analysis::VehicleModel;
using ev::config::ScenarioSpec;

// Stress point: 125 kbit/s CAN at doubled traffic keeps transmissions long
// and the busy periods tight, so the Poisson channel (safety) lands k_max
// in the low single digits — analytic miss probabilities from 1e-6 up to
// ~0.85 — while the Bernoulli channel (comfort) stays in the rare-miss
// regime. Error-inflated utilization stays well below 1 on both buses, so
// the testbed queues are stable and every sent frame is eventually
// delivered.
constexpr double kBitRateBps = 125e3;
constexpr double kLoadScale = 2.0;
constexpr double kPoissonRatePerS = 300.0;
constexpr double kBernoulliProb = 0.02;

constexpr std::uint64_t kFirstSeed = 1;
constexpr int kSeeds = 20;
constexpr double kSendSeconds = 30.0;   // send window per seed per bus
constexpr double kDrainSeconds = 5.0;   // backlog drain before counting

ScenarioSpec scenario() {
  ScenarioSpec spec;
  spec.name = "e24-stress";
  spec.network.can_bit_rate = kBitRateBps;
  spec.network.load_scale = kLoadScale;
  spec.subsystems.faults = true;
  spec.faults.push_back({0.0, ev::config::FaultKind::kBusErrorRate, "safety_can",
                         kPoissonRatePerS});
  spec.faults.push_back({0.0, ev::config::FaultKind::kBusErrorProb, "comfort_can",
                         kBernoulliProb});
  return spec;
}

/// Aggregated campaign evidence for one frame of one armed bus.
struct CrossCheck {
  std::size_t bus = 0;
  std::size_t frame = 0;        // index into VehicleModel::frames
  double analytic = 0.0;        // P(miss) upper bound from the analyzer
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t missed = 0;
};

double wall_seconds(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// Writes the deterministic cross-validation record (analytic bounds and
/// campaign tallies — no wall times) to E24_crossval.json next to the bench
/// metric snapshots. CI byte-compares this file between --jobs values.
bool write_crossval_json(const VehicleModel& model, const std::vector<CrossCheck>& checks,
                         std::string* path_out) {
  const char* dir = std::getenv("EVSYS_BENCH_METRICS_DIR");
  const std::string path =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
      "E24_crossval.json";
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"experiment\": \"e24_prob_timing\",\n  \"seeds\": " << kSeeds
      << ",\n  \"frames\": [\n";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const CrossCheck& c = checks[i];
    const ev::analysis::FrameModel& frame = model.frames[c.frame];
    char id_hex[16];
    std::snprintf(id_hex, sizeof id_hex, "0x%x", frame.id);
    const double observed =
        c.sent == 0 ? 0.0
                    : static_cast<double>(c.missed) / static_cast<double>(c.sent);
    out << "    {\"bus\": \"" << model.buses[c.bus].scenario_name << "\", \"id\": \""
        << id_hex << "\", \"analytic\": " << ev::config::format_double(c.analytic)
        << ", \"sent\": " << c.sent << ", \"delivered\": " << c.delivered
        << ", \"missed\": " << c.missed
        << ", \"observed\": " << ev::config::format_double(observed) << "}"
        << (i + 1 < checks.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (path_out != nullptr) *path_out = path;
  return static_cast<bool>(out);
}

int run_experiment() {
  std::puts("E24 — probabilistic CAN timing analysis vs fault-injection "
            "campaigns: every analytic deadline-miss probability must "
            "dominate the observed miss frequency\n");

  const ScenarioSpec spec = scenario();
  const VehicleModel model = ev::analysis::extract_model(spec);

  ev::analysis::ProbabilisticCanAnalyzer analyzer(model);
  double analysis_wall_s = wall_seconds(
      [&spec] { (void)ev::analysis::analyze_probabilistic_scenario(spec); });
  for (int i = 0; i < 2; ++i)
    analysis_wall_s = std::min(analysis_wall_s, wall_seconds([&spec] {
      (void)ev::analysis::analyze_probabilistic_scenario(spec);
    }));

  // Analytic side: the per-frame miss bounds of every armed CAN bus.
  const std::vector<std::size_t> armed_buses = ev::analysis::armed_can_buses(analyzer);
  std::vector<CrossCheck> checks;
  std::map<std::size_t, std::size_t> check_of_frame;
  for (const std::size_t b : armed_buses) {
    for (const FrameMissBound& fmb : analyzer.bus_outcome(b).frames) {
      check_of_frame[fmb.frame] = checks.size();
      checks.push_back(CrossCheck{b, fmb.frame, fmb.miss_probability, 0, 0, 0});
    }
  }

  // Simulated side: the seed-ladder campaign, one testbed per armed bus per
  // seed, on the shared worker pool. Workers are pure; the fold accumulates
  // in seed order, so the tallies (and the exported cross-validation JSON)
  // are byte-identical for any EVSYS_BENCH_JOBS value.
  const double campaign_wall_s = wall_seconds([&] {
    evbench::run_seeded_campaign(
        kFirstSeed, 1, kSeeds, evbench::default_jobs(),
        [&](std::uint64_t seed, int) {
          std::vector<std::vector<FrameTally>> per_bus;
          per_bus.reserve(armed_buses.size());
          for (const std::size_t b : armed_buses)
            per_bus.push_back(ev::analysis::run_prob_testbed(
                model, b, analyzer.error_models()[b], seed, kSendSeconds,
                kDrainSeconds));
          return per_bus;
        },
        [&](std::vector<std::vector<FrameTally>> per_bus, std::uint64_t, int) {
          for (std::size_t i = 0; i < armed_buses.size(); ++i) {
            const ProbOutcome& outcome = analyzer.bus_outcome(armed_buses[i]);
            for (std::size_t s = 0; s < outcome.frames.size(); ++s) {
              CrossCheck& check = checks[check_of_frame.at(outcome.frames[s].frame)];
              check.sent += per_bus[i][s].sent;
              check.delivered += per_bus[i][s].delivered;
              check.missed += per_bus[i][s].missed;
            }
          }
        });
  });

  ev::util::Table table(
      "analytic P(miss) vs observed miss frequency (" + std::to_string(kSeeds) +
          "-seed fault-injection campaign)",
      {"bus", "frame", "analytic", "observed", "tolerance", "misses", "sent", "sound"});
  int violations = 0;
  int lost = 0;
  double max_excess = -1.0;
  for (const CrossCheck& c : checks) {
    const ev::analysis::FrameModel& frame = model.frames[c.frame];
    const double observed =
        c.sent == 0 ? 0.0
                    : static_cast<double>(c.missed) / static_cast<double>(c.sent);
    const double tolerance = ev::analysis::hoeffding_tolerance(c.sent);
    const double excess = observed - (c.analytic + tolerance);
    const bool sound = excess <= 0.0;
    if (!sound) ++violations;
    if (c.delivered != c.sent) ++lost;  // errors must delay, never lose
    max_excess = std::max(max_excess, observed - c.analytic);
    char id_hex[16];
    std::snprintf(id_hex, sizeof id_hex, "0x%x", frame.id);
    table.add_row({model.buses[c.bus].scenario_name, id_hex,
                   ev::util::fmt(c.analytic, 6), ev::util::fmt(observed, 6),
                   ev::util::fmt(tolerance, 6), std::to_string(c.missed),
                   std::to_string(c.sent), sound ? "yes" : "NO"});
  }
  table.print();

  std::string crossval_path;
  if (write_crossval_json(model, checks, &crossval_path))
    std::printf("\ncross-validation record: %s\n", crossval_path.c_str());

  evbench::set_gauge("e24.comparisons", static_cast<double>(checks.size()));
  evbench::set_gauge("e24.violations", static_cast<double>(violations));
  evbench::set_gauge("e24.lost_frames", static_cast<double>(lost));
  evbench::set_gauge("e24.max_observed_minus_analytic", max_excess);
  evbench::set_gauge("e24.analysis_wall_s", analysis_wall_s);
  evbench::set_gauge("e24.campaign_wall_s", campaign_wall_s);

  std::printf("\ncomparisons: %zu, violations: %d, frames lost: %d, "
              "max observed-analytic gap: %.6f\n",
              checks.size(), violations, lost, max_excess);
  std::puts("expected shape: zero violations and zero lost frames — the "
            "analytic probability is an upper bound (critical-instant "
            "phasing, worst-case error placement), so observed frequencies "
            "sit below it and the --prob pass can gate deployment against "
            "stochastic faults without running a campaign.\n");
  return violations + lost;
}

void bm_analyze_probabilistic(benchmark::State& state) {
  const ScenarioSpec spec = scenario();
  const VehicleModel model = ev::analysis::extract_model(spec);
  for (auto _ : state)
    benchmark::DoNotOptimize(ev::analysis::analyze_probabilistic(model));
}
BENCHMARK(bm_analyze_probabilistic)->Unit(benchmark::kMicrosecond);

void bm_combined_tail(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(ev::analysis::combined_tail_above(3.2, 48, 0.02, 12));
}
BENCHMARK(bm_combined_tail)->Unit(benchmark::kNanosecond);

void bm_error_ladder(benchmark::State& state) {
  const ScenarioSpec spec = scenario();
  const VehicleModel model = ev::analysis::extract_model(spec);
  std::vector<ev::network::CanMessageSpec> messages;
  for (const ev::analysis::FrameModel& frame : model.frames)
    if (model.buses[frame.bus].scenario_name == "safety_can" &&
        frame.payload_bytes <= 8)
      messages.push_back({frame.id, frame.payload_bytes, frame.period_s, 0.0});
  const double overhead_s = 31.0 / kBitRateBps + 135.0 / kBitRateBps;
  for (auto _ : state)
    for (int k = 0; k <= 16; ++k)
      benchmark::DoNotOptimize(
          ev::network::can_response_times(messages, kBitRateBps, overhead_s, k));
}
BENCHMARK(bm_error_ladder)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const int failures = run_experiment();
  const int rc = evbench::finish("e24_prob_timing", argc, argv);
  return failures > 0 ? 1 : rc;
}

// Experiment E25: the seeded differential-testing campaign as a pinned
// artifact. A fixed (seed, count) fuzz run drives generated scenarios
// through the whole stack — text round trip, static pre-filter,
// co-simulation, and the conservation/E19/E24 oracles — and the campaign
// must come back clean: zero round-trip mismatches, zero invariant
// violations, zero bound or P(miss) violations, with the oracles actually
// exercised (non-zero comparison counts). Any failure fails the binary.
// The gauges pin the verdict mix so a generator regression that silently
// stops reaching faults, arch overrides, or simulation shows up in the
// perf gate, and the wall-time gauges feed the usual throughput gate.
#include <cstdio>
#include <string>

#include "ev/fuzz/fuzz.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

constexpr std::uint64_t kSeed = 1;
constexpr int kCount = 100;

int run_experiment() {
  std::puts("E25 — seeded scenario fuzzing: differential testing of the "
            "parser, static analyzer, and co-simulation oracles\n");

  ev::fuzz::FuzzOptions options;
  options.seed = kSeed;
  options.count = kCount;
  options.jobs = evbench::default_jobs();

  ev::fuzz::FuzzResult result;
  const double fuzz_wall_s =
      evbench::wall_seconds([&] { result = ev::fuzz::run_fuzz(options); });

  int rejected = 0;
  int simulated = 0;
  int failed = 0;
  std::size_t check_warnings = 0;
  std::size_t bound_comparisons = 0;
  std::size_t prob_comparisons = 0;
  for (const ev::fuzz::ScenarioOutcome& outcome : result.scenarios) {
    switch (outcome.verdict) {
      case ev::fuzz::Verdict::kRejected: ++rejected; break;
      case ev::fuzz::Verdict::kSimulated: ++simulated; break;
      case ev::fuzz::Verdict::kFailed: ++failed; break;
    }
    check_warnings += outcome.check_warnings;
    bound_comparisons += outcome.bound_comparisons;
    prob_comparisons += outcome.prob_comparisons;
  }

  ev::util::Table table("fuzz campaign (seed " + std::to_string(kSeed) +
                            ", " + std::to_string(kCount) + " scenarios)",
                        {"outcome", "count"});
  table.add_row({"simulated, oracles upheld", std::to_string(simulated)});
  table.add_row({"rejected by static check", std::to_string(rejected)});
  table.add_row({"failed", std::to_string(failed)});
  table.add_row({"E19 bound comparisons", std::to_string(bound_comparisons)});
  table.add_row({"E24 P(miss) comparisons", std::to_string(prob_comparisons)});
  table.add_row({"fleet round trips",
                 std::to_string(result.fleets_generated)});
  table.print();

  for (const ev::fuzz::ScenarioOutcome& outcome : result.scenarios) {
    if (outcome.verdict != ev::fuzz::Verdict::kFailed) continue;
    std::printf("  FAILURE index %d: %s: %s\n", outcome.index,
                ev::fuzz::to_string(outcome.failure), outcome.detail.c_str());
  }
  for (int index : result.fleet_round_trip_failures)
    std::printf("  FAILURE fleet index %d: round trip mismatch\n", index);

  // The campaign is only evidence if the oracles ran: a clean report with
  // zero comparisons would mean the harness quietly stopped looking.
  int violations = static_cast<int>(result.failures());
  if (simulated == 0) ++violations;
  if (bound_comparisons == 0) ++violations;
  if (prob_comparisons == 0) ++violations;

  evbench::set_gauge("e25.generated", kCount);
  evbench::set_gauge("e25.simulated", simulated);
  evbench::set_gauge("e25.rejected", rejected);
  evbench::set_gauge("e25.failures", static_cast<double>(result.failures()));
  evbench::set_gauge("e25.check_warnings", static_cast<double>(check_warnings));
  evbench::set_gauge("e25.bound_comparisons",
                     static_cast<double>(bound_comparisons));
  evbench::set_gauge("e25.prob_comparisons",
                     static_cast<double>(prob_comparisons));
  evbench::set_gauge("e25.fleet_round_trips",
                     static_cast<double>(result.fleets_generated));
  evbench::set_gauge("e25.fuzz_wall_s", fuzz_wall_s);

  std::printf("\n%d scenarios: %d simulated, %d rejected, %zu failure(s); "
              "%zu bound + %zu P(miss) comparisons in %.1f s\n",
              kCount, simulated, rejected, result.failures(),
              bound_comparisons, prob_comparisons, fuzz_wall_s);
  std::puts("expected shape: zero failures with every oracle exercised — "
            "generated specs round-trip exactly, checked-clean specs "
            "simulate without tripping a conservation, static-bound, or "
            "P(miss) contract, and the report is a pure function of "
            "(seed, count).\n");
  return violations;
}

}  // namespace

int main() {
  const int violations = run_experiment();
  const int rc = evbench::finish("e25_fuzz");
  return violations > 0 ? 1 : rc;
}

// Experiment E9 (paper Section 4.1 "Precise Timing Analysis", refs
// [30][31][32]): the precision/scalability trade-off of cache analysis.
//  (a) precise collecting analysis vs abstract must-analysis: bound
//      tightness and runtime as the program grows;
//  (b) replacement-policy predictability: LRU vs FIFO vs PLRU bounds;
//  (c) scratchpad memory: exact WCET (full predictability) vs cache
//      average performance.
#include <chrono>
#include <cstdio>

#include "ev/timing/analysis.h"
#include "ev/timing/program.h"
#include "ev/timing/spm.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::timing;
using Clock = std::chrono::steady_clock;

Program make_program(std::size_t segments, std::uint64_t seed) {
  ev::util::Rng rng(seed);
  ProgramGenConfig cfg;
  cfg.segments = segments;
  cfg.branch_probability = 0.6;
  return generate_program(cfg, rng);
}

void run_experiment() {
  std::puts("E9 — WCET/cache analysis: precision vs scalability\n");
  const CacheConfig lru_cache = {8, 2, 64, 1, 20, Replacement::kLru};

  // --- (a) collecting vs abstract ------------------------------------------
  ev::util::Table precis("precise (collecting, [31]) vs abstract ([30]) on LRU",
                         {"segments", "paths", "abstract bound", "abstract ms",
                          "precise bound", "precise ms", "exact WCET",
                          "abstract overest."});
  for (std::size_t segments : {4u, 8u, 12u, 16u, 20u}) {
    const Program p = make_program(segments, segments);
    const auto t0 = Clock::now();
    const AnalysisResult abs = must_analysis(p, lru_cache);
    const auto t1 = Clock::now();
    const AnalysisResult coll = collecting_analysis(p, lru_cache, 1 << 18);
    const auto t2 = Clock::now();
    const std::int64_t abs_bound = wcet_bound_cycles(p, lru_cache, abs);
    const std::int64_t coll_bound = wcet_bound_cycles(p, lru_cache, coll);
    const std::int64_t exact = exact_wcet_cycles(p, lru_cache, 3e6);
    precis.add_row(
        {std::to_string(segments), ev::util::fmt(p.path_count(), 0),
         std::to_string(abs_bound),
         ev::util::fmt(std::chrono::duration<double, std::milli>(t1 - t0).count(), 2),
         std::to_string(coll_bound),
         ev::util::fmt(std::chrono::duration<double, std::milli>(t2 - t1).count(), 2),
         exact >= 0 ? std::to_string(exact) : "too many paths",
         exact > 0 ? ev::util::fmt_pct(static_cast<double>(abs_bound) / exact - 1.0)
                   : "-"});
  }
  precis.print();

  // --- (b) replacement-policy predictability ---------------------------------
  ev::util::Table policies("policy predictability (same program, 4-way cache)",
                           {"policy", "WCET bound", "observed max", "bound/observed"});
  const Program p = make_program(10, 77);
  for (Replacement policy : {Replacement::kLru, Replacement::kFifo, Replacement::kPlru}) {
    const CacheConfig cfg = {8, 4, 64, 1, 20, policy};
    const std::int64_t bound = wcet_bound_cycles(p, cfg, must_analysis(p, cfg));
    ev::util::Rng rng(99);
    const std::int64_t observed = observed_wcet_cycles(p, cfg, 300, rng);
    policies.add_row({to_string(policy), std::to_string(bound), std::to_string(observed),
                      ev::util::fmt(static_cast<double>(bound) / observed, 2)});
  }
  policies.print();

  // --- (c) scratchpad vs cache ------------------------------------------------
  ev::util::Table spm_table("scratchpad ([32]) vs LRU cache",
                            {"memory", "WCET bound", "observed max",
                             "bound tightness", "avg-case cycles"});
  {
    const CacheConfig cfg = {8, 2, 64, 1, 20, Replacement::kLru};
    const std::int64_t bound = wcet_bound_cycles(p, cfg, must_analysis(p, cfg));
    ev::util::Rng rng(7);
    const std::int64_t observed = observed_wcet_cycles(p, cfg, 300, rng);
    // Average case: mean over sampled paths approximated by re-sampling.
    ev::util::Rng rng2(8);
    double avg = 0.0;
    for (int k = 0; k < 50; ++k)
      avg += static_cast<double>(observed_wcet_cycles(p, cfg, 1, rng2)) / 50.0;
    spm_table.add_row({"LRU cache (16 lines)", std::to_string(bound),
                       std::to_string(observed),
                       ev::util::fmt(static_cast<double>(bound) / observed, 2),
                       ev::util::fmt(avg, 0)});
  }
  {
    SpmConfig cfg;
    cfg.capacity_lines = 16;
    const SpmAllocation alloc = allocate_spm(p, cfg);
    // SPM costs are static: bound == observed == exact.
    spm_table.add_row({"SPM (16 lines)", std::to_string(alloc.wcet_cycles),
                       std::to_string(alloc.wcet_cycles), "1.00",
                       ev::util::fmt(static_cast<double>(alloc.wcet_cycles), 0)});
    evbench::set_gauge("e9.spm.wcet_cycles",
                       static_cast<double>(alloc.wcet_cycles));
  }
  spm_table.print();
  std::puts("expected shape: collecting analysis is tighter but its runtime "
            "explodes with path count; LRU yields the tightest abstract bounds "
            "(FIFO/PLRU degrade via competitiveness reductions); the SPM bound "
            "is exact (predictability) though its average case is slower than "
            "a warm cache.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e9_wcet_analysis");
}

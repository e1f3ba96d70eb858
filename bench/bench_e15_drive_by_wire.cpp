// Experiment E15 (paper Section 2 "Drive-by-wire", ref [10]): redundancy
// design for brake-by-wire. The paper's argument: "with most software errors
// being of systematic nature, straightforward component duplication may not
// be sufficient"; diverse implementations (or non-identical hardware) are
// needed. Two views:
//  (a) deterministic fault scenarios: what each design does under one
//      systematic fault, one random fault, and both;
//  (b) Monte-Carlo missions with rare fault arrivals: probability that a
//      mission contains a *dangerous* (undetected wrong output) cycle vs a
//      *safe detected* loss of function.
#include <cstdio>

#include "ev/bywire/brake_system.h"
#include "ev/bywire/redundancy.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::bywire;

RedundantChannelSet make_design(std::size_t replicas, bool diverse,
                                double systematic_rate) {
  return diverse ? make_diverse_redundancy(replicas, 0.0, systematic_rate)
                 : make_identical_redundancy(replicas, 0.0, systematic_rate);
}

const char* classify(const VoteResult& r) {
  if (r.undetected_wrong) return "DANGEROUS (wrong output voted through)";
  if (!r.valid) return "fail-safe (loss detected, function degraded)";
  return "masked (correct output maintained)";
}

void scenario_table() {
  ev::util::Table table("deterministic fault scenarios (one actuation cycle)",
                        {"design", "1 systematic fault", "1 random fault",
                         "systematic + random"});
  struct Design {
    const char* name;
    std::size_t replicas;
    bool diverse;
  };
  for (const Design d : {Design{"duplex identical", 2, false},
                         Design{"duplex diverse", 2, true},
                         Design{"triplex identical", 3, false},
                         Design{"triplex diverse", 3, true}}) {
    ev::util::Rng rng(1);
    auto sys = make_design(d.replicas, d.diverse, 0.0);
    sys.inject_systematic_fault(0);
    const VoteResult syst = sys.actuate(0.5, rng);

    auto rnd = make_design(d.replicas, d.diverse, 0.0);
    rnd.inject_random_fault(0);
    const VoteResult random = rnd.actuate(0.5, rng);

    auto both = make_design(d.replicas, d.diverse, 0.0);
    both.inject_systematic_fault(0);
    // The random fault hits a replica of a *different* implementation when
    // diversity provides one.
    both.inject_random_fault(d.replicas - 1);
    const VoteResult combo = both.actuate(0.5, rng);

    table.add_row({d.name, classify(syst), classify(random), classify(combo)});
  }
  table.print();
}

void monte_carlo_table() {
  // Rare arrivals tuned so roughly half the missions see one systematic
  // event: the designs then separate by what that event *does*.
  constexpr int kMissions = 300;
  constexpr double kMissionHours = 0.05;
  const double cycles =
      kMissionHours * 3600.0 * 200.0;  // BrakeSystemConfig default rate
  const double systematic_rate = 0.7 / cycles;
  const double random_rate = 0.2 / cycles;

  ev::util::Table table("Monte-Carlo missions (300 runs, ~0.7 systematic + ~0.2 "
                        "random events expected per run)",
                        {"design", "missions w/ dangerous cycles",
                         "missions w/ detected loss", "clean missions"});
  struct Design {
    const char* name;
    std::size_t replicas;
    bool diverse;
  };
  for (const Design d : {Design{"simplex", 1, false}, Design{"duplex identical", 2, false},
                         Design{"duplex diverse", 2, true},
                         Design{"triplex identical", 3, false},
                         Design{"triplex diverse", 3, true},
                         Design{"5x diverse", 5, true}}) {
    int dangerous = 0, detected = 0, clean = 0;
    evbench::run_seeded_campaign(13, 977, kMissions, [&](std::uint64_t seed, int) {
      BrakeSystemConfig cfg;
      cfg.replicas = d.replicas;
      cfg.diverse = d.diverse;
      cfg.random_fault_rate = random_rate;
      cfg.systematic_fault_rate = systematic_rate;
      ev::util::Rng rng(seed);
      const BrakeMissionReport r = simulate_brake_mission(cfg, kMissionHours, rng);
      if (r.wrong_output_cycles > 0)
        ++dangerous;
      else if (r.loss_of_function_cycles > 0)
        ++detected;
      else
        ++clean;
    });
    if (d.diverse && d.replicas == 3) {
      evbench::set_gauge("e15.triplex_diverse.dangerous_missions",
                         static_cast<double>(dangerous));
      evbench::set_gauge("e15.triplex_diverse.clean_missions",
                         static_cast<double>(clean));
    }
    auto pct = [&](int n) { return ev::util::fmt_pct(n / double(kMissions)); };
    table.add_row({d.name, pct(dangerous), pct(detected), pct(clean)});
  }
  table.print();
  std::puts("expected shape: identical replication leaves the dangerous-"
            "mission probability at the simplex level (every copy fails "
            "together and votes the wrong value through); diverse triplex "
            "masks single systematic faults entirely, and duplex diverse "
            "converts them into detected fail-safe losses — the paper's case "
            "for diversity over duplication.\n");
}

void run_experiment() {
  std::puts("E15 — brake-by-wire redundancy: identical vs diverse replicas\n");
  scenario_table();
  monte_carlo_table();
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e15_drive_by_wire");
}

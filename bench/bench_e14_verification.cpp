// Experiment E14 (paper Section 4.1 "Verification of distributed control
// systems", refs [28][29]): model checking transmission patterns against
// omega-regular control-performance interfaces. Regenerates the
// verified/violated matrix for representative system/requirement pairs and
// measures how checking effort grows with the requirement window — the
// scalability challenge the paper flags.
#include <chrono>
#include <cstdio>

#include "ev/util/table.h"
#include "ev/verification/model_checker.h"
#include "harness.h"

namespace {

using namespace ev::verification;
using Clock = std::chrono::steady_clock;

void run_experiment() {
  std::puts("E14 — formal verification of control transmission patterns\n");

  ev::util::Table matrix("system model vs requirement",
                         {"system", "requirement", "verdict", "counterexample",
                          "product states"});
  struct Case {
    TransmissionSystem system;
    MonitorDfa requirement;
  };
  const Case cases[] = {
      {TransmissionSystem::time_triggered(10, 1), MonitorDfa::max_consecutive_drops(2)},
      {TransmissionSystem::time_triggered(10, 3), MonitorDfa::max_consecutive_drops(2)},
      {TransmissionSystem::time_triggered(10, 1), MonitorDfa::at_least_m_of_n(8, 10)},
      {TransmissionSystem::arbitrated(2), MonitorDfa::max_consecutive_drops(2)},
      {TransmissionSystem::arbitrated(4), MonitorDfa::max_consecutive_drops(2)},
      {TransmissionSystem::arbitrated(2), MonitorDfa::at_least_m_of_n(4, 8)},
      {TransmissionSystem::unbounded_drops(), MonitorDfa::max_consecutive_drops(4)},
  };
  int verified = 0;
  for (const Case& c : cases) {
    const VerificationResult r = verify(c.system, c.requirement);
    if (r.verified) ++verified;
    matrix.add_row({c.system.description(), c.requirement.description(),
                    r.verified ? "VERIFIED" : "violated",
                    r.verified ? "-" : std::to_string(r.counterexample.size()) + " slots",
                    std::to_string(r.product_states)});
  }
  matrix.print();
  evbench::set_gauge("e14.matrix.verified_cases", static_cast<double>(verified));

  ev::util::Table scaling("checking effort vs requirement window (arbitrated system, "
                          "burst 3)",
                          {"window n", "monitor states", "product states",
                           "transitions", "time"});
  const auto sys = TransmissionSystem::arbitrated(3);
  for (std::size_t n : {6u, 10u, 14u, 18u}) {
    const MonitorDfa req = MonitorDfa::at_least_m_of_n(n / 2, n);
    const auto t0 = Clock::now();
    const VerificationResult r = verify(sys, req);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    // Overwritten per window; the snapshot keeps the largest (n = 18).
    evbench::set_gauge("e14.product_states", static_cast<double>(r.product_states));
    scaling.add_row({std::to_string(n), std::to_string(req.state_count()),
                     std::to_string(r.product_states),
                     std::to_string(r.transitions_explored),
                     ev::util::fmt(us / 1000.0, 3) + " ms"});
  }
  scaling.print();
  std::puts("expected shape: runtime and explored states grow exponentially "
            "with the requirement window (monitor states = 2^(n-1)+1) — the "
            "versatility-vs-scalability trade the paper names as the open "
            "challenge.\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e14_verification");
}

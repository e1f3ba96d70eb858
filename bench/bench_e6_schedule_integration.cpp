// Experiment E6 (paper Section 3.1, refs [17][18]): scalability of
// time-triggered schedule synthesis. Monolithic global synthesis is compared
// against modular schedule integration (independent local schedules + one
// shift per subsystem) as the number of subsystems grows — search effort,
// wall-clock time, and schedulability.
#include <chrono>
#include <cstdio>

#include "ev/scheduling/integration.h"
#include "ev/scheduling/synthesis.h"
#include "ev/util/table.h"
#include "harness.h"

namespace {

using namespace ev::scheduling;
using Clock = std::chrono::steady_clock;

std::vector<Subsystem> make_subsystems(int count, int tasks_each) {
  std::vector<Subsystem> subs;
  for (int s = 0; s < count; ++s) {
    Subsystem sub;
    sub.name = "component-" + std::to_string(s);
    for (int t = 0; t < tasks_each; ++t) {
      Activity a;
      a.id = t;
      a.name = sub.name + "-task" + std::to_string(t);
      a.resource = s;  // each component has its own ECU...
      a.period_us = (t % 2 == 0) ? 10000 : 20000;
      a.duration_us = 600;
      if (t > 0) a.predecessors.push_back(t - 1);
      sub.system.activities.push_back(std::move(a));
    }
    Activity msg;  // ...plus one message on the shared backbone.
    msg.id = tasks_each;
    msg.name = sub.name + "-msg";
    msg.resource = 1000;
    msg.period_us = 10000;
    msg.duration_us = 150;
    msg.predecessors.push_back(tasks_each - 1);
    sub.system.activities.push_back(std::move(msg));
    sub.system.offset_granularity_us = 50;
    subs.push_back(std::move(sub));
  }
  return subs;
}

System flatten(const std::vector<Subsystem>& subs) {
  System big;
  int next_id = 0;
  for (const auto& sub : subs) {
    const int base = next_id;
    for (const Activity& a : sub.system.activities) {
      Activity copy = a;
      copy.id = next_id++;
      copy.predecessors.clear();
      for (int p : a.predecessors) copy.predecessors.push_back(base + p);
      big.activities.push_back(std::move(copy));
    }
  }
  big.offset_granularity_us = 50;
  return big;
}

void run_experiment() {
  std::puts("E6 — monolithic synthesis vs modular schedule integration\n");
  ev::util::Table table("synthesis effort vs system size (5 tasks + 1 bus message "
                        "per subsystem)",
                        {"subsystems", "activities", "monolithic steps",
                         "monolithic ms", "modular steps", "modular ms",
                         "both feasible"});
  for (int n : {2, 4, 8, 16, 32, 48}) {
    const auto subs = make_subsystems(n, 5);

    const auto t0 = Clock::now();
    const Schedule mono = MonolithicSynthesizer().synthesize(flatten(subs));
    const auto t1 = Clock::now();
    const IntegrationResult modular = ScheduleIntegrator().integrate(subs);
    const auto t2 = Clock::now();

    const double mono_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double mod_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    table.add_row({std::to_string(n), std::to_string(n * 6),
                   std::to_string(mono.search_steps), ev::util::fmt(mono_ms, 2),
                   std::to_string(modular.search_steps), ev::util::fmt(mod_ms, 2),
                   (mono.feasible && modular.feasible) ? "yes" : "NO"});
    // Overwritten each size; the snapshot keeps the largest system (n = 48).
    evbench::set_gauge("e6.monolithic.search_steps",
                       static_cast<double>(mono.search_steps));
    evbench::set_gauge("e6.modular.search_steps",
                       static_cast<double>(modular.search_steps));
  }
  table.print();
  std::puts("expected shape: monolithic search effort grows superlinearly with "
            "system size while modular integration stays near-linear — the "
            "paper's argument for integration-phase scheduling ([18]).\n");
}

}  // namespace

int main() {
  run_experiment();
  return evbench::finish("e6_schedule_integration");
}

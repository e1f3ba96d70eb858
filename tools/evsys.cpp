// evsys — scenario-driven whole-vehicle runner. Loads a declarative
// scenario file (see examples/scenarios/*.scn), builds the composed
// VehicleSystem through the core builder, drives the scenario's cycle
// under co-simulation, and emits the deterministic result JSON: same
// scenario file + same seed ⇒ byte-identical output.
//
//   $ evsys run examples/scenarios/city_commute.scn
//   $ evsys run limp.scn --out limp.result.json --metrics limp
//   $ evsys campaign city.scn --seeds 8 --jobs 4       # parallel seed ladder
//   $ evsys fleet examples/scenarios/depot_fleet.fleet   # fleet run
//   $ evsys check examples/scenarios/city_commute.scn   # static analysis
//   $ evsys synthesize overloaded.scn --seed 1          # repair + optimize
//   $ evsys print examples/scenarios/city_commute.scn   # canonical round-trip
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ev/analysis/analyzer.h"
#include "ev/analysis/prob.h"
#include "ev/campaign/campaign.h"
#include "ev/config/fleet.h"
#include "ev/config/scenario.h"
#include "ev/core/scenario.h"
#include "ev/core/subsystems.h"
#include "ev/fleet/simulation.h"
#include "ev/fuzz/fuzz.h"
#include "ev/obs/export.h"
#include "ev/synthesis/synthesis.h"

namespace {

/// What a flag reads: a path or name, a closed-grammar integer, or nothing.
enum class FlagKind : std::uint8_t { kText, kU64, kInt, kSwitch };

struct Flag {
  const char* name;
  FlagKind kind;
  const char* value;  ///< Synopsis placeholder of the value; "" for a switch.
  std::optional<std::int64_t> min{};  ///< Lower bound of a numeric value.
};

/// The operands and flag values of one invocation, checked by parse_args()
/// against its verb's row of kVerbs.
struct Args {
  std::vector<std::string> operands;
  std::map<std::string, std::string> texts;  ///< Text flags; switches map to "".
  std::map<std::string, std::uint64_t> u64s;
  std::map<std::string, int> ints;

  [[nodiscard]] std::string text(const char* flag) const {
    const auto it = texts.find(flag);
    return it == texts.end() ? std::string() : it->second;
  }
  [[nodiscard]] bool on(const char* flag) const { return texts.count(flag) != 0; }
  /// Overwrites \p out with the value of \p flag when it was given.
  void read(const char* flag, std::uint64_t& out) const {
    if (const auto it = u64s.find(flag); it != u64s.end()) out = it->second;
  }
  void read(const char* flag, int& out) const {
    if (const auto it = ints.find(flag); it != ints.end()) out = it->second;
  }
};

/// A misused command line; main() prints it after the verb and exits 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Writes one report through \p write to \p path, or to stdout when \p path
/// is empty, then flushes and checks the stream. A file that cannot be
/// opened or a lost byte (a full disk, stdout on /dev/full) is reported on
/// stderr and returns false; every verb then exits 1.
bool write_output(const std::string& path, const std::function<void(std::ostream&)>& write) {
  if (path.empty()) {
    write(std::cout);
    if (std::cout.flush()) return true;
    std::fprintf(stderr, "evsys: cannot write to stdout\n");
    return false;
  }
  std::ofstream out(path);
  if (out) write(out);
  if (out.flush()) return true;
  std::fprintf(stderr, "evsys: cannot write '%s'\n", path.c_str());
  return false;
}

/// write_output for a report that is already rendered as text.
bool write_text(const std::string& path, const std::string& text) {
  return write_output(path, [&text](std::ostream& out) { out << text; });
}

int cmd_campaign(const Args& args) {
  ev::campaign::CampaignOptions options;
  args.read("--seeds", options.seeds.count);
  args.read("--first", options.seeds.first);
  args.read("--stride", options.seeds.stride);
  args.read("--jobs", options.jobs);
  const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(args.operands[0]);
  const ev::campaign::CampaignResult result =
      ev::campaign::run_scenario_campaign(spec, options);

  std::fprintf(stderr, "evsys campaign: %s — %d seed(s) from %llu, stride %llu\n",
               result.scenario.c_str(), result.seeds.count,
               static_cast<unsigned long long>(result.seeds.first),
               static_cast<unsigned long long>(result.seeds.stride));

  const bool written = write_output(args.text("--out"), [&result](std::ostream& out) {
    ev::campaign::write_campaign_json(result, out);
  });
  return written ? 0 : 1;
}

int cmd_check(const Args& args) {
  const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(args.operands[0]);
  const ev::analysis::Report report =
      args.on("--prob") ? ev::analysis::analyze_probabilistic_scenario(spec)
                        : ev::analysis::analyze_scenario(spec);

  if (!write_output(args.text("--out"), [&report](std::ostream& out) {
        ev::analysis::write_report_json(report, out);
      }))
    return 1;

  std::fprintf(stderr, "evsys check: %s — %zu error(s), %zu warning(s), %zu bound(s)\n",
               report.scenario.c_str(),
               report.count(ev::analysis::Severity::kError),
               report.count(ev::analysis::Severity::kWarning),
               report.count(ev::analysis::Severity::kInfo));
  for (const ev::analysis::Diagnostic& d : report.diagnostics)
    if (d.severity != ev::analysis::Severity::kInfo)
      std::fprintf(stderr, "  %s %s [%s] %s\n",
                   ev::analysis::to_string(d.severity).c_str(), d.subject.c_str(),
                   d.rule_id.c_str(), d.message.c_str());
  return ev::analysis::exit_code_for(report);
}

int cmd_run(const Args& args) {
  const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(args.operands[0]);
  std::unique_ptr<ev::core::VehicleSystem> vehicle;
  const ev::core::ScenarioRunResult result = ev::core::run_scenario(spec, &vehicle);

  const std::string metrics_base = args.text("--metrics");
  if (!metrics_base.empty()) {
    auto* obs = vehicle->find_subsystem<ev::core::ObservabilitySubsystem>();
    if (obs == nullptr) {
      std::fprintf(stderr, "evsys: --metrics needs 'subsystems.obs = true'\n");
      return 1;
    }
    if (!obs->export_files(metrics_base)) {
      std::fprintf(stderr, "evsys: could not write metrics files '%s.*'\n",
                   metrics_base.c_str());
      return 1;
    }
    // The span sink is bounded and keeps the first spans; say what it lost.
    if (const std::uint64_t dropped = obs->trace().dropped(); dropped > 0)
      std::fprintf(stderr,
                   "evsys run: span trace full: kept the first %zu span(s), dropped %llu\n",
                   obs->trace().spans().size(), static_cast<unsigned long long>(dropped));
  }

  const bool written = write_output(args.text("--out"), [&result](std::ostream& out) {
    ev::core::write_result_json(result, out);
  });
  return written ? 0 : 1;
}

int cmd_fleet(const Args& args) {
  const std::string metrics_base = args.text("--metrics");
  const ev::config::FleetSpec spec = ev::config::load_fleet_file(args.operands[0]);
  ev::obs::MetricsRegistry metrics;
  const ev::fleet::FleetResult result = ev::fleet::run_fleet(
      spec, 1, metrics_base.empty() ? nullptr : &metrics);

  std::fprintf(stderr,
               "evsys fleet: %s — %llu station(s), %llu tick(s), mode %s, "
               "%llu session(s) completed, %llu grid violation(s)\n",
               result.name.c_str(),
               static_cast<unsigned long long>(result.station_count),
               static_cast<unsigned long long>(result.ticks),
               ev::fleet::to_string(result.final_mode).c_str(),
               static_cast<unsigned long long>(result.stations.sessions_completed),
               static_cast<unsigned long long>(result.grid_violations));

  if (!metrics_base.empty()) {
    if (!ev::obs::write_metrics_json_file(metrics, metrics_base + ".metrics.json") ||
        !ev::obs::write_metrics_csv_file(metrics, metrics_base + ".metrics.csv")) {
      std::fprintf(stderr, "evsys: could not write metrics files '%s.*'\n",
                   metrics_base.c_str());
      return 1;
    }
  }

  const bool written = write_output(args.text("--out"), [&result](std::ostream& out) {
    ev::fleet::write_fleet_json(result, out);
  });
  if (!written) return 1;
  if (result.grid_violations > 0) {
    std::fprintf(stderr,
                 "evsys fleet: grid-safety invariant broken: the fleet drew more than "
                 "the live capacity on %llu tick(s)\n",
                 static_cast<unsigned long long>(result.grid_violations));
    return 1;
  }
  return 0;
}

int cmd_synthesize(const Args& args) {
  ev::synthesis::SynthesisOptions options;
  args.read("--seed", options.seed);
  args.read("--iters", options.iters);
  args.read("--jobs", options.jobs);
  options.cross_check = args.on("--cross-check");
  const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(args.operands[0]);
  const ev::synthesis::SynthesisResult result = ev::synthesis::synthesize(spec, options);

  std::fprintf(stderr,
               "evsys synthesize: %s — %s at load_scale %s, "
               "%llu move(s) evaluated, %llu accepted, %zu Pareto point(s)\n",
               result.spec.name.c_str(), result.feasible ? "feasible" : "infeasible",
               ev::config::format_double(result.load_scale).c_str(),
               static_cast<unsigned long long>(result.moves_evaluated),
               static_cast<unsigned long long>(result.moves_accepted),
               result.pareto.size());

  const std::string report_path = args.text("--report");
  if (!report_path.empty() && !write_output(report_path, [&result](std::ostream& out) {
        ev::synthesis::write_synthesis_json(result, out);
      }))
    return 1;
  if (!write_text(args.text("--out"), result.spec.to_text())) return 1;
  return result.feasible ? 0 : 1;
}

int cmd_fuzz(const Args& args) {
  ev::fuzz::FuzzOptions options;
  args.read("--seed", options.seed);
  args.read("--count", options.count);
  args.read("--jobs", options.jobs);
  options.reproducer_dir = args.text("--repro-dir");
  options.shrink = !args.on("--no-shrink");
  const ev::fuzz::FuzzResult result = ev::fuzz::run_fuzz(options);
  if (!write_text(args.text("--out"), ev::fuzz::fuzz_json(result))) return 1;
  std::size_t rejected = 0, simulated = 0;
  for (const ev::fuzz::ScenarioOutcome& outcome : result.scenarios) {
    if (outcome.verdict == ev::fuzz::Verdict::kRejected) ++rejected;
    if (outcome.verdict == ev::fuzz::Verdict::kSimulated) ++simulated;
  }
  const std::size_t failures = result.failures();
  std::fprintf(stderr,
               "evsys fuzz: seed %llu, %d scenarios (%zu simulated, %zu "
               "rejected by check), %d fleet round trips, %zu failures\n",
               static_cast<unsigned long long>(result.seed), result.count,
               simulated, rejected, result.fleets_generated, failures);
  for (const ev::fuzz::ScenarioOutcome& outcome : result.scenarios)
    if (outcome.failure != ev::fuzz::FailureKind::kNone)
      std::fprintf(stderr, "evsys fuzz: [%d] %s: %s%s%s\n", outcome.index,
                   ev::fuzz::to_string(outcome.failure), outcome.detail.c_str(),
                   outcome.reproducer.empty() ? "" : " — reproducer ",
                   outcome.reproducer.c_str());
  return failures > 0 ? 1 : 0;
}

int cmd_print(const Args& args) {
  const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(args.operands[0]);
  return write_text("", spec.to_text()) ? 0 : 1;
}

int cmd_template(const Args& args) {
  const std::string kind = args.operands.empty() ? "scenario" : args.operands[0];
  if (kind == "fleet") return write_text("", ev::config::FleetSpec{}.to_text()) ? 0 : 1;
  if (kind != "scenario")
    throw UsageError("unknown template kind '" + kind + "' (valid: scenario, fleet)");
  return write_text("", ev::config::ScenarioSpec{}.to_text()) ? 0 : 1;
}

/// One verb: its operands, its closed set of flags, the command it runs and
/// its paragraph of the usage text.
struct Verb {
  const char* name;
  const char* operand;  ///< Synopsis of the operand; "" when it takes none.
  std::size_t min_operands;
  std::size_t max_operands;
  std::vector<Flag> flags;
  int (*run)(const Args&);
  const char* help;  ///< One usage-text line per '\n'.
};

// --jobs is unbounded: zero or negative means one job per hardware thread.
const Verb kVerbs[] = {
    {"run", "<scenario.scn>", 1, 1,
     {{"--out", FlagKind::kText, "<file>"}, {"--metrics", FlagKind::kText, "<base>"}},
     cmd_run,
     "build the vehicle the scenario describes, drive its\n"
     "cycle, and write the deterministic result JSON to\n"
     "stdout (or --out <file>). --metrics <base> also\n"
     "exports <base>.metrics.json/.metrics.csv from the\n"
     "observability subsystem."},
    {"campaign", "<scenario.scn>", 1, 1,
     {{"--seeds", FlagKind::kInt, "<n>", 1},
      {"--first", FlagKind::kU64, "<seed>"},
      {"--stride", FlagKind::kU64, "<n>", 1},
      {"--jobs", FlagKind::kInt, "<n>"},
      {"--out", FlagKind::kText, "<file>"}},
     cmd_campaign,
     "run the scenario once per rung of the seed ladder\n"
     "first + i*stride (i < seeds, default 8 seeds from 1)\n"
     "on --jobs worker threads (default 1; 0 = one per\n"
     "hardware thread), each rung on a private simulator,\n"
     "and write one deterministic campaign report JSON —\n"
     "per-seed digests, cross-seed min/mean/max tables,\n"
     "and the merged metrics — to stdout (or --out).\n"
     "Output is byte-identical for any --jobs value."},
    {"fleet", "<scenario.fleet>", 1, 1,
     {{"--out", FlagKind::kText, "<file>"}, {"--metrics", FlagKind::kText, "<base>"}},
     cmd_fleet,
     "simulate the OCPP-style fleet charging backend the\n"
     ".fleet scenario describes — heartbeat leases,\n"
     "retry/backoff control channel, grid-aware load\n"
     "balancing under injected grid faults — and write\n"
     "the deterministic fleet report JSON to stdout (or\n"
     "--out). --metrics <base> also exports\n"
     "<base>.metrics.json/.metrics.csv. Same scenario ⇒\n"
     "byte-identical report. Exit code: 0 when the grid\n"
     "was never overdrawn, 1 otherwise."},
    {"check", "<scenario.scn>", 1, 1,
     {{"--prob", FlagKind::kSwitch, ""}, {"--out", FlagKind::kText, "<file>"}},
     cmd_check,
     "statically analyze the composed vehicle without\n"
     "running it: schedulability bounds per ECU and bus,\n"
     "plus wiring lints. Diagnostics JSON goes to stdout\n"
     "(or --out <file>), a summary to stderr. Exit code:\n"
     "0 clean, 1 errors, 3 warnings only. --prob adds the\n"
     "probabilistic fault-aware timing pass: per-frame\n"
     "deadline-miss probabilities (prob.* rules) under\n"
     "the scenario's bus.error_rate / bus.error_prob\n"
     "fault specs; with no such spec the output is\n"
     "byte-identical to the plain check."},
    {"fuzz", "", 0, 0,
     {{"--seed", FlagKind::kU64, "<n>"},
      {"--count", FlagKind::kInt, "<n>", 1},
      {"--jobs", FlagKind::kInt, "<n>"},
      {"--out", FlagKind::kText, "<file>"},
      {"--repro-dir", FlagKind::kText, "<dir>"},
      {"--no-shrink", FlagKind::kSwitch, ""}},
     cmd_fuzz,
     "differential-test the whole stack: derive --count\n"
     "valid-by-construction scenarios from --seed, run\n"
     "each through text round-trip, static check (as a\n"
     "pre-filter), co-simulation, and the E19/E24/\n"
     "conservation oracles on --jobs worker threads\n"
     "(default 1; 0 = one per hardware thread). Failures\n"
     "are delta-shrunk (--no-shrink skips that) and\n"
     "dumped as reproducer .scn files under --repro-dir.\n"
     "The campaign report JSON goes to stdout (or --out)\n"
     "and is byte-identical for any --jobs value. Exit\n"
     "code: 0 when every oracle held, 1 otherwise."},
    {"synthesize", "<scenario.scn>", 1, 1,
     {{"--seed", FlagKind::kU64, "<n>"},
      {"--iters", FlagKind::kInt, "<n>", 0},
      {"--jobs", FlagKind::kInt, "<n>"},
      {"--out", FlagKind::kText, "<file>"},
      {"--report", FlagKind::kText, "<file>"},
      {"--cross-check", FlagKind::kSwitch, ""}},
     cmd_synthesize,
     "invert check: search the architecture design space\n"
     "(frame placement, CAN priorities, FlexRay slots,\n"
     "partition windows, bit rate, load scale) for a\n"
     "repaired scenario that passes check cleanly, then\n"
     "anneal it for slack and busload. The synthesized\n"
     "scenario text goes to stdout (or --out <file>),\n"
     "the deterministic search report JSON to --report\n"
     "<file>, a summary to stderr. Same seed ⇒\n"
     "byte-identical output for any --jobs value. Exit\n"
     "code: 0 when the result is feasible, 1 otherwise."},
    {"print", "<scenario.scn>", 1, 1, {}, cmd_print,
     "parse + validate a scenario and print its canonical\n"
     "text form (a lossless round-trip)."},
    {"template", "[scenario|fleet]", 0, 1, {}, cmd_template,
     "print a default scenario to start from\n"
     "('template fleet' prints a fleet scenario)."},
};

int usage(const char* argv0) {
  std::string text;
  for (const Verb& verb : kVerbs) {
    std::string line =
        std::string(text.empty() ? "usage: " : "       ") + argv0 + " " + verb.name;
    if (*verb.operand != '\0') line += std::string(" ") + verb.operand;
    for (const Flag& flag : verb.flags) {
      std::string word = std::string("[") + flag.name;
      if (*flag.value != '\0') word += std::string(" ") + flag.value;
      word += "]";
      if (line.size() + 1 + word.size() > 78) {
        text += line + "\n";
        line = std::string(15, ' ');
      }
      line += " " + word;
    }
    text += line + "\n";
  }
  text += "\n";
  const std::string indent(12, ' ');
  for (const Verb& verb : kVerbs) {
    std::string paragraph = std::string("  ") + verb.name;
    if (paragraph.size() < indent.size())
      paragraph.resize(indent.size(), ' ');
    else
      paragraph += '\n' + indent;
    for (const char* c = verb.help; *c != '\0'; ++c) {
      paragraph += *c;
      if (*c == '\n') paragraph += indent;
    }
    text += paragraph + "\n";
  }
  std::fputs(text.c_str(), stderr);
  return 2;
}

/// Stores \p value for \p flag in \p args: numbers in the closed integer
/// grammar of scenario text (config::parse_u64 / parse_i64), at or above the
/// flag's lower bound.
void store(const Flag& flag, const std::string& value, Args& args) {
  const auto expects = [&](const std::string& what) {
    return UsageError(std::string(flag.name) + " expects " + what + ", got '" + value + "'");
  };
  const std::string at_least = "an integer >= " + std::to_string(flag.min.value_or(0));
  if (flag.kind == FlagKind::kText || flag.kind == FlagKind::kSwitch) {
    args.texts[flag.name] = value;
  } else if (flag.kind == FlagKind::kU64) {
    const std::optional<std::uint64_t> v = ev::config::parse_u64(value);
    if (!v) throw expects("a non-negative 64-bit integer");
    if (flag.min && *v < static_cast<std::uint64_t>(*flag.min)) throw expects(at_least);
    args.u64s[flag.name] = *v;
  } else {
    const std::optional<std::int64_t> v = ev::config::parse_i64(value);
    if (!v || *v < std::numeric_limits<int>::min() || *v > std::numeric_limits<int>::max())
      throw expects("a 32-bit integer");
    if (flag.min && *v < *flag.min) throw expects(at_least);
    args.ints[flag.name] = static_cast<int>(*v);
  }
}

/// argv[2..] checked against \p verb's row: every flag listed and given at
/// most once, every value present and well-formed, and the operand count
/// within the verb's arity. Throws UsageError naming what is wrong.
Args parse_args(const Verb& verb, int argc, char** argv) {
  Args args;
  std::set<std::string> given;
  for (int i = 2; i < argc; ++i) {
    const std::string word = argv[i];
    if (word.rfind("--", 0) != 0) {
      if (args.operands.size() == verb.max_operands)
        throw UsageError("unexpected argument '" + word + "'");
      args.operands.push_back(word);
      continue;
    }
    const auto flag = std::find_if(verb.flags.begin(), verb.flags.end(),
                                   [&word](const Flag& f) { return word == f.name; });
    if (flag == verb.flags.end()) throw UsageError("unknown flag '" + word + "'");
    if (!given.insert(word).second) throw UsageError(word + " given twice");
    const bool takes_value = flag->kind != FlagKind::kSwitch;
    if (takes_value && i + 1 == argc) throw UsageError(word + " needs a value");
    store(*flag, takes_value ? argv[++i] : "", args);
  }
  if (args.operands.size() < verb.min_operands)
    throw UsageError(std::string("missing ") + verb.operand);
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  const Verb* verb = std::find_if(std::begin(kVerbs), std::end(kVerbs),
                                  [&command](const Verb& v) { return command == v.name; });
  if (verb == std::end(kVerbs)) {
    std::string valid;
    for (const Verb& v : kVerbs) valid += std::string(valid.empty() ? "" : ", ") + v.name;
    std::fprintf(stderr, "evsys: unknown command '%s' (valid: %s)\n", command.c_str(),
                 valid.c_str());
    return usage(argv[0]);
  }
  try {
    return verb->run(parse_args(*verb, argc, argv));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "evsys %s: %s\n", verb->name, e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evsys: %s\n", e.what());
    return 1;
  }
}

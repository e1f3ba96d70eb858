// evsys — scenario-driven whole-vehicle runner. Loads a declarative
// scenario file (see examples/scenarios/*.scn), builds the composed
// VehicleSystem through the core builder, drives the scenario's cycle
// under co-simulation, and emits the deterministic result JSON: same
// scenario file + same seed ⇒ byte-identical output.
//
//   $ evsys run examples/scenarios/city_commute.scn
//   $ evsys run limp.scn --out limp.result.json --metrics limp
//   $ evsys campaign city.scn --seeds 8 --jobs 4       # parallel seed ladder
//   $ evsys fleet examples/scenarios/depot_fleet.fleet --jobs 8   # fleet run
//   $ evsys check examples/scenarios/city_commute.scn   # static analysis
//   $ evsys synthesize overloaded.scn --seed 1          # repair + optimize
//   $ evsys print examples/scenarios/city_commute.scn   # canonical round-trip
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

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

// Single source of truth for the error paths: every valid verb and template
// kind, in the order the usage text lists them.
constexpr const char* kVerbs[] = {"campaign", "check", "fleet",      "fuzz",
                                  "print",    "run",   "synthesize", "template"};
constexpr const char* kTemplateKinds[] = {"scenario", "fleet"};

template <std::size_t N>
std::string join_names(const char* const (&names)[N]) {
  std::string out;
  for (const char* name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// A malformed numeric flag value; main() reports it and exits 2.
struct FlagError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// argv[i] as the value of flag argv[i - 1], in the closed u64 grammar of
/// scenario text (digits only: no sign, no whitespace, no overflow).
std::uint64_t u64_flag(char** argv, int i) {
  if (const std::optional<std::uint64_t> v = ev::config::parse_u64(argv[i])) return *v;
  throw FlagError(std::string(argv[i - 1]) +
                  " expects a non-negative 64-bit integer, got '" + argv[i] + "'");
}

/// argv[i] as the int value of flag argv[i - 1] (closed i64 grammar, then
/// range-checked). Negative values pass: `--jobs -N` means one job per
/// hardware thread.
int int_flag(char** argv, int i) {
  const std::optional<std::int64_t> v = ev::config::parse_i64(argv[i]);
  if (!v || *v < std::numeric_limits<int>::min() ||
      *v > std::numeric_limits<int>::max())
    throw FlagError(std::string(argv[i - 1]) + " expects a 32-bit integer, got '" +
                    argv[i] + "'");
  return static_cast<int>(*v);
}

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

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run <scenario.scn> [--out <file>] [--metrics <base>]\n"
               "       %s campaign <scenario.scn> [--seeds <n>] [--first <seed>]\n"
               "                [--stride <n>] [--jobs <n>] [--out <file>]\n"
               "       %s fleet <scenario.fleet> [--jobs <n>] [--out <file>]\n"
               "                [--metrics <base>]\n"
               "       %s check <scenario.scn> [--prob] [--out <file>]\n"
               "       %s fuzz [--seed <n>] [--count <n>] [--jobs <n>]\n"
               "                [--out <file>] [--repro-dir <dir>] [--no-shrink]\n"
               "       %s synthesize <scenario.scn> [--seed <n>] [--iters <n>]\n"
               "                [--jobs <n>] [--out <file>] [--report <file>]\n"
               "                [--cross-check]\n"
               "       %s print <scenario.scn>\n"
               "       %s template [scenario|fleet]\n"
               "\n"
               "  run       build the vehicle the scenario describes, drive its\n"
               "            cycle, and write the deterministic result JSON to\n"
               "            stdout (or --out <file>). --metrics <base> also\n"
               "            exports <base>.metrics.json/.metrics.csv from the\n"
               "            observability subsystem.\n"
               "  campaign  run the scenario once per rung of the seed ladder\n"
               "            first + i*stride (i < seeds, default 8 seeds from 1)\n"
               "            on --jobs worker threads (default 1; 0 = one per\n"
               "            hardware thread), each rung on a private simulator,\n"
               "            and write one deterministic campaign report JSON —\n"
               "            per-seed digests, cross-seed min/mean/max tables,\n"
               "            and the merged metrics — to stdout (or --out).\n"
               "            Output is byte-identical for any --jobs value.\n"
               "  check     statically analyze the composed vehicle without\n"
               "            running it: schedulability bounds per ECU and bus,\n"
               "            plus wiring lints. Diagnostics JSON goes to stdout\n"
               "            (or --out <file>), a summary to stderr. Exit code:\n"
               "            0 clean, 1 errors, 3 warnings only. --prob adds the\n"
               "            probabilistic fault-aware timing pass: per-frame\n"
               "            deadline-miss probabilities (prob.* rules) under\n"
               "            the scenario's bus.error_rate / bus.error_prob\n"
               "            fault specs; with no such spec the output is\n"
               "            byte-identical to the plain check.\n"
               "  fleet     simulate the OCPP-style fleet charging backend the\n"
               "            .fleet scenario describes — heartbeat leases,\n"
               "            retry/backoff control channel, grid-aware load\n"
               "            balancing under injected grid faults — on --jobs\n"
               "            worker threads (default 1; 0 = one per hardware\n"
               "            thread) and write the deterministic fleet report\n"
               "            JSON to stdout (or --out). --metrics <base> also\n"
               "            exports <base>.metrics.json/.metrics.csv. Output\n"
               "            is byte-identical for any --jobs value.\n"
               "  fuzz      differential-test the whole stack: derive --count\n"
               "            valid-by-construction scenarios from --seed, run\n"
               "            each through text round-trip, static check (as a\n"
               "            pre-filter), co-simulation, and the E19/E24/\n"
               "            conservation oracles on --jobs worker threads\n"
               "            (default 1; 0 = one per hardware thread). Failures\n"
               "            are delta-shrunk (--no-shrink skips that) and\n"
               "            dumped as reproducer .scn files under --repro-dir.\n"
               "            The campaign report JSON goes to stdout (or --out)\n"
               "            and is byte-identical for any --jobs value. Exit\n"
               "            code: 0 when every oracle held, 1 otherwise.\n"
               "  synthesize\n"
               "            invert check: search the architecture design space\n"
               "            (frame placement, CAN priorities, FlexRay slots,\n"
               "            partition windows, bit rate, load scale) for a\n"
               "            repaired scenario that passes check cleanly, then\n"
               "            anneal it for slack and busload. The synthesized\n"
               "            scenario text goes to stdout (or --out <file>),\n"
               "            the deterministic search report JSON to --report\n"
               "            <file>, a summary to stderr. Same seed ⇒\n"
               "            byte-identical output for any --jobs value. Exit\n"
               "            code: 0 when the result is feasible, 1 otherwise.\n"
               "  print     parse + validate a scenario and print its canonical\n"
               "            text form (a lossless round-trip).\n"
               "  template  print a default scenario to start from\n"
               "            ('template fleet' prints a fleet scenario).\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

int cmd_campaign(const std::string& path, const ev::campaign::CampaignOptions& options,
                 const std::string& out_path) {
  const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(path);
  const ev::campaign::CampaignResult result =
      ev::campaign::run_scenario_campaign(spec, options);

  std::fprintf(stderr, "evsys campaign: %s — %d seed(s) from %llu, stride %llu\n",
               result.scenario.c_str(), result.seeds.count,
               static_cast<unsigned long long>(result.seeds.first),
               static_cast<unsigned long long>(result.seeds.stride));

  const bool written = write_output(out_path, [&result](std::ostream& out) {
    ev::campaign::write_campaign_json(result, out);
  });
  return written ? 0 : 1;
}

int cmd_check(const std::string& path, bool probabilistic,
              const std::string& out_path) {
  const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(path);
  const ev::analysis::Report report =
      probabilistic ? ev::analysis::analyze_probabilistic_scenario(spec)
                    : ev::analysis::analyze_scenario(spec);

  if (!write_output(out_path, [&report](std::ostream& out) {
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

int cmd_run(const std::string& path, const std::string& out_path,
            const std::string& metrics_base) {
  const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(path);
  std::unique_ptr<ev::core::VehicleSystem> vehicle;
  const ev::core::ScenarioRunResult result = ev::core::run_scenario(spec, &vehicle);

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
  }

  const bool written = write_output(out_path, [&result](std::ostream& out) {
    ev::core::write_result_json(result, out);
  });
  return written ? 0 : 1;
}

int cmd_fleet(const std::string& path, int jobs, const std::string& out_path,
              const std::string& metrics_base) {
  const ev::config::FleetSpec spec = ev::config::load_fleet_file(path);
  ev::obs::MetricsRegistry metrics;
  const ev::fleet::FleetResult result = ev::fleet::run_fleet(
      spec, jobs, metrics_base.empty() ? nullptr : &metrics);

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

  const bool written = write_output(out_path, [&result](std::ostream& out) {
    ev::fleet::write_fleet_json(result, out);
  });
  return written ? 0 : 1;
}

int cmd_synthesize(const std::string& path, const ev::synthesis::SynthesisOptions& options,
                   const std::string& out_path, const std::string& report_path) {
  const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(path);
  const ev::synthesis::SynthesisResult result = ev::synthesis::synthesize(spec, options);

  std::fprintf(stderr,
               "evsys synthesize: %s — %s at load_scale %s, "
               "%llu move(s) evaluated, %llu accepted, %zu Pareto point(s)\n",
               result.spec.name.c_str(), result.feasible ? "feasible" : "infeasible",
               ev::config::format_double(result.load_scale).c_str(),
               static_cast<unsigned long long>(result.moves_evaluated),
               static_cast<unsigned long long>(result.moves_accepted),
               result.pareto.size());

  if (!report_path.empty() && !write_output(report_path, [&result](std::ostream& out) {
        ev::synthesis::write_synthesis_json(result, out);
      }))
    return 1;
  if (!write_text(out_path, result.spec.to_text())) return 1;
  return result.feasible ? 0 : 1;
}

int cmd_fuzz(const ev::fuzz::FuzzOptions& options, const std::string& out_path) {
  const ev::fuzz::FuzzResult result = ev::fuzz::run_fuzz(options);
  if (!write_text(out_path, ev::fuzz::fuzz_json(result))) return 1;
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

int cmd_print(const std::string& path) {
  const ev::config::ScenarioSpec spec = ev::config::load_scenario_file(path);
  return write_text("", spec.to_text()) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  try {
    if (command == "template") {
      if (argc >= 3 && std::strcmp(argv[2], "fleet") == 0)
        return write_text("", ev::config::FleetSpec{}.to_text()) ? 0 : 1;
      if (argc >= 3 && std::strcmp(argv[2], "scenario") != 0) {
        std::fprintf(stderr, "evsys: unknown template kind '%s' (valid: %s)\n",
                     argv[2], join_names(kTemplateKinds).c_str());
        return 2;
      }
      return write_text("", ev::config::ScenarioSpec{}.to_text()) ? 0 : 1;
    }
    if (command == "fleet") {
      if (argc < 3) return usage(argv[0]);
      int jobs = 1;
      std::string out_path, metrics_base;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
          jobs = int_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
          metrics_base = argv[++i];
        } else {
          return usage(argv[0]);
        }
      }
      return cmd_fleet(argv[2], jobs, out_path, metrics_base);
    }
    if (command == "print") {
      if (argc != 3) return usage(argv[0]);
      return cmd_print(argv[2]);
    }
    if (command == "check") {
      if (argc < 3) return usage(argv[0]);
      bool probabilistic = false;
      std::string out_path;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--prob") == 0) {
          probabilistic = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else {
          return usage(argv[0]);
        }
      }
      return cmd_check(argv[2], probabilistic, out_path);
    }
    if (command == "campaign") {
      if (argc < 3) return usage(argv[0]);
      ev::campaign::CampaignOptions options;
      options.seeds.count = 8;
      std::string out_path;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
          options.seeds.count = int_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--first") == 0 && i + 1 < argc) {
          options.seeds.first = u64_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--stride") == 0 && i + 1 < argc) {
          options.seeds.stride = u64_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
          options.jobs = int_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else {
          return usage(argv[0]);
        }
      }
      if (options.seeds.count < 1 || options.seeds.stride == 0) {
        std::fprintf(stderr, "evsys: --seeds must be >= 1 and --stride >= 1\n");
        return 2;
      }
      return cmd_campaign(argv[2], options, out_path);
    }
    if (command == "run") {
      if (argc < 3) return usage(argv[0]);
      std::string out_path, metrics_base;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
          metrics_base = argv[++i];
        } else {
          return usage(argv[0]);
        }
      }
      return cmd_run(argv[2], out_path, metrics_base);
    }
    if (command == "fuzz") {
      ev::fuzz::FuzzOptions options;
      std::string out_path;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
          options.seed = u64_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
          options.count = int_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
          options.jobs = int_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--repro-dir") == 0 && i + 1 < argc) {
          options.reproducer_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
          options.shrink = false;
        } else {
          return usage(argv[0]);
        }
      }
      if (options.count < 1) {
        std::fprintf(stderr, "evsys: --count must be >= 1\n");
        return 2;
      }
      return cmd_fuzz(options, out_path);
    }
    if (command == "synthesize") {
      if (argc < 3) return usage(argv[0]);
      ev::synthesis::SynthesisOptions options;
      std::string out_path, report_path;
      for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
          options.seed = u64_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
          options.iters = int_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
          options.jobs = int_flag(argv, ++i);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
          report_path = argv[++i];
        } else if (std::strcmp(argv[i], "--cross-check") == 0) {
          options.cross_check = true;
        } else {
          return usage(argv[0]);
        }
      }
      if (options.iters < 0) {
        std::fprintf(stderr, "evsys: --iters must be >= 0\n");
        return 2;
      }
      return cmd_synthesize(argv[2], options, out_path, report_path);
    }
    std::fprintf(stderr, "evsys: unknown command '%s' (valid: %s)\n",
                 command.c_str(), join_names(kVerbs).c_str());
    return usage(argv[0]);
  } catch (const FlagError& e) {
    std::fprintf(stderr, "evsys: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evsys: %s\n", e.what());
    return 1;
  }
}

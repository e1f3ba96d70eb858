#!/usr/bin/env python3
"""Wall-time regression gate over benchmark metric snapshots.

Only gauges whose name ends in ``_wall_s`` are compared — the deterministic
artifacts (event counts, physics gauges) are pinned byte-for-byte by
Golden.HotPathArtifacts instead and must never drift at all. The gated
benches are the ones with a BENCH_*.json in the baseline directory
(committed under bench/baselines/). Two modes:

Baseline mode compares each baseline against K >= 3 fresh candidate
snapshots of the same bench, one per candidate directory (each produced by
one run of the bench binaries with EVSYS_BENCH_METRICS_DIR):

    python3 scripts/perfgate.py --baseline bench/baselines \\
        --candidate perf_out/1 --candidate perf_out/2 --candidate perf_out/3

A/B mode runs the gated benches of two builds itself, parent and change
alternately (the first to run swaps every round), for --rounds K >= 3
rounds on the same host, and compares the change's medians against the
parent's instead of against numbers recorded on other hardware:

    python3 scripts/perfgate.py --baseline bench/baselines \\
        --ab parent/build/bench build/bench --rounds 3

For each gauge the gate takes the median of the K samples and fails when it
lies more than ``max(threshold, 3 * MAD / median)`` above the reference,
where MAD is the median absolute deviation of the K samples (in A/B mode the
wider of the two builds' allowances): a noisy host widens the allowance by
its own measured spread instead of failing on one slow sample. --threshold
defaults to 15%. --warn-only downgrades failures to warnings. Improvements
are reported, never penalised.

Exit codes: 0 ok (or warn-only), 1 regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MIN_SAMPLES = 3


def load_wall_gauges(path: Path) -> dict[str, float]:
    try:
        snapshot = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"perfgate: cannot read {path}: {err}", file=sys.stderr)
        raise SystemExit(2) from err
    gauges = snapshot.get("gauges", {})
    return {
        name: float(value)
        for name, value in gauges.items()
        if name.endswith("wall_s") and isinstance(value, (int, float))
    }


def allowance(samples: list[float], threshold: float) -> tuple[float, float, float]:
    """Returns (median, MAD, allowed fractional slowdown) of \\p samples."""
    median = statistics.median(samples)
    mad = statistics.median(abs(s - median) for s in samples)
    spread = 3.0 * mad / median if median > 0.0 else 0.0
    return median, mad, max(threshold, spread)


def compare(name: str, reference: float, samples: list[float], threshold: float,
            regressions: list[str], label: str) -> None:
    """Prints one gauge's verdict; appends to \\p regressions when it fails."""
    median, mad, allowed = allowance(samples, threshold)
    if reference <= 0.0:
        print(f"  ? {name}: {label} {reference:.6f}s not positive — skipped")
        return
    delta = median / reference - 1.0
    marker = "OK"
    if delta > allowed:
        marker = "REGRESSION"
        regressions.append(f"{name} {reference:.4g}s -> median {median:.4g}s "
                           f"(+{delta:.0%}, allowed +{allowed:.0%})")
    elif delta < 0:
        marker = "improved"
    print(f"  {marker:>10}  {name}: {label} {reference:.4g}s -> median {median:.4g}s "
          f"of {len(samples)} (MAD {mad:.2g}s, {delta:+.1%}, allowed +{allowed:.0%})")


def gate_baseline(baselines: list[Path], candidates: list[Path], threshold: float,
                  regressions: list[str]) -> int:
    """Baseline mode; returns the number of gauges compared."""
    compared = 0
    for base_path in baselines:
        cand_paths = [d / base_path.name for d in candidates]
        present = [p for p in cand_paths if p.is_file()]
        if not present:
            print(f"perfgate: {base_path.name}: no candidate produced — skipped")
            continue
        if len(present) < len(cand_paths):
            regressions.append(f"{base_path.name}: only {len(present)} of "
                               f"{len(cand_paths)} candidate runs produced it")
            continue
        base = load_wall_gauges(base_path)
        cands = [load_wall_gauges(p) for p in present]
        if not base:
            print(f"perfgate: {base_path.name}: baseline has no *_wall_s gauges — skipped")
            continue
        for name, base_s in sorted(base.items()):
            if any(name not in cand for cand in cands):
                regressions.append(f"{base_path.name}: gauge {name} vanished from a candidate")
                continue
            compared += 1
            compare(name, base_s, [cand[name] for cand in cands], threshold, regressions,
                    "baseline")
    return compared


def run_bench(binary: Path, out_dir: Path, snapshot: str) -> dict[str, float]:
    """Runs one bench binary with its snapshot directed into \\p out_dir and
    returns the snapshot's wall gauges."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, EVSYS_BENCH_METRICS_DIR=str(out_dir))
    result = subprocess.run([str(binary.resolve())], cwd=out_dir, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            check=False)
    if result.returncode != 0 or not (out_dir / snapshot).is_file():
        print(result.stderr, end="", file=sys.stderr)
        print(f"perfgate: {binary} exited {result.returncode} without writing {snapshot}",
              file=sys.stderr)
        raise SystemExit(1)
    return load_wall_gauges(out_dir / snapshot)


def gate_ab(baselines: list[Path], parent_dir: Path, change_dir: Path, rounds: int,
            threshold: float, regressions: list[str]) -> int:
    """A/B mode; returns the number of gauges compared."""
    benches = [(p.name, "bench_" + p.stem.removeprefix("BENCH_")) for p in baselines]
    for directory in (parent_dir, change_dir):
        for _, bench in benches:
            if not (directory / bench).is_file():
                print(f"perfgate: {directory / bench} does not exist", file=sys.stderr)
                raise SystemExit(2)
    sides = {"parent": parent_dir, "change": change_dir}
    samples: dict[str, dict[str, list[dict[str, float]]]] = {
        side: {bench: [] for _, bench in benches} for side in sides}
    with tempfile.TemporaryDirectory(prefix="perfgate_ab_") as tmp:
        for k in range(rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            print(f"perfgate: round {k + 1} of {rounds} ({order[0]} first)", flush=True)
            for snapshot, bench in benches:
                for side in order:
                    out_dir = Path(tmp) / side / str(k) / bench
                    samples[side][bench].append(run_bench(sides[side] / bench, out_dir, snapshot))

    compared = 0
    for _, bench in benches:
        parent_runs, change_runs = samples["parent"][bench], samples["change"][bench]
        for name in sorted(set().union(*parent_runs)):
            if any(name not in run for run in parent_runs + change_runs):
                regressions.append(f"{bench}: gauge {name} missing from a run")
                continue
            # The parent's own allowance is the floor of the change's.
            parent_median, _, parent_allowed = allowance([run[name] for run in parent_runs],
                                                         threshold)
            compared += 1
            compare(name, parent_median, [run[name] for run in change_runs], parent_allowed,
                    regressions, "parent median")
    return compared


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="directory of committed BENCH_*.json baselines; in A/B mode "
                             "it only names the gated benches")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--candidate", type=Path, action="append",
                      help="directory of one run's fresh BENCH_*.json files; "
                           f"give it at least {MIN_SAMPLES} times")
    mode.add_argument("--ab", nargs=2, type=Path, metavar=("PARENT_BIN_DIR", "CHANGE_BIN_DIR"),
                      help="run the gated bench binaries of two builds alternately and "
                           "compare the change against the parent")
    parser.add_argument("--rounds", type=int, default=MIN_SAMPLES,
                        help=f"A/B rounds, at least {MIN_SAMPLES} (default {MIN_SAMPLES})")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="least fractional slowdown that fails the gate (default 0.15)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (first-run seeding)")
    args = parser.parse_args()

    if args.candidate is not None and len(args.candidate) < MIN_SAMPLES:
        print(f"perfgate: {len(args.candidate)} candidate run(s) given, need at least "
              f"{MIN_SAMPLES} (repeat --candidate)", file=sys.stderr)
        return 2
    if args.ab is not None and args.rounds < MIN_SAMPLES:
        print(f"perfgate: --rounds {args.rounds} given, need at least {MIN_SAMPLES}",
              file=sys.stderr)
        return 2
    for directory in (args.baseline, *(args.candidate or args.ab)):
        if not directory.is_dir():
            print(f"perfgate: {directory} is not a directory", file=sys.stderr)
            return 2

    baselines = sorted(args.baseline.glob("BENCH_*.json"))
    if not baselines:
        print(f"perfgate: no BENCH_*.json baselines in {args.baseline} — "
              "nothing to gate (commit baselines to arm the gate)")
        return 0

    regressions: list[str] = []
    if args.ab is not None:
        compared = gate_ab(baselines, *args.ab, args.rounds, args.threshold, regressions)
    else:
        compared = gate_baseline(baselines, args.candidate, args.threshold, regressions)

    print(f"perfgate: compared {compared} wall-time gauge(s), "
          f"{len(regressions)} regression(s)")
    for line in regressions:
        print(f"perfgate: {line}", file=sys.stderr)
    if regressions and not args.warn_only:
        return 1
    if regressions:
        print("perfgate: --warn-only set — reporting without failing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

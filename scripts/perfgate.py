#!/usr/bin/env python3
"""Wall-time regression gate over benchmark metric snapshots.

Compares every BENCH_*.json in a baseline directory (committed under
bench/baselines/) against K >= 3 fresh candidate snapshots of the same bench,
one per candidate directory (each produced by one run of the bench binaries
with EVSYS_BENCH_METRICS_DIR). Only gauges whose name ends in ``_wall_s`` are
compared — the deterministic artifacts (event counts, physics gauges) are
pinned byte-for-byte by Golden.HotPathArtifacts instead and must never drift
at all.

For each gauge the gate takes the median of the K candidate samples and
fails when it lies more than ``max(threshold, 3 * MAD / median)`` above the
baseline, where MAD is the median absolute deviation of the K samples: a
noisy host widens the allowance by its own measured spread instead of
failing on one slow sample. --threshold defaults to 15%. --warn-only
downgrades failures to warnings. Improvements are reported, never
penalised.

    python3 scripts/perfgate.py --baseline bench/baselines \\
        --candidate perf_out/1 --candidate perf_out/2 --candidate perf_out/3

Exit codes: 0 ok (or warn-only), 1 regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--candidate", required=True, type=Path, action="append",
                        help="directory of one run's fresh BENCH_*.json files; "
                             f"give it at least {MIN_SAMPLES} times")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="least fractional slowdown that fails the gate (default 0.15)")
    parser.add_argument("--warn-only", action="store_true",
                        help="report regressions but exit 0 (first-run seeding)")
    args = parser.parse_args()

    if len(args.candidate) < MIN_SAMPLES:
        print(f"perfgate: {len(args.candidate)} candidate run(s) given, need at least "
              f"{MIN_SAMPLES} (repeat --candidate)", file=sys.stderr)
        return 2
    for directory in (args.baseline, *args.candidate):
        if not directory.is_dir():
            print(f"perfgate: {directory} is not a directory", file=sys.stderr)
            return 2

    baselines = sorted(args.baseline.glob("BENCH_*.json"))
    if not baselines:
        print(f"perfgate: no BENCH_*.json baselines in {args.baseline} — "
              "nothing to gate (commit baselines to arm the gate)")
        return 0

    regressions: list[str] = []
    compared = 0
    for base_path in baselines:
        cand_paths = [d / base_path.name for d in args.candidate]
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
            samples = [cand[name] for cand in cands]
            compared += 1
            if base_s <= 0.0:
                print(f"  ? {name}: baseline {base_s:.6f}s not positive — skipped")
                continue
            median, mad, allowed = allowance(samples, args.threshold)
            delta = median / base_s - 1.0
            marker = "OK"
            if delta > allowed:
                marker = "REGRESSION"
                regressions.append(
                    f"{base_path.name}: {name} {base_s:.3f}s -> median {median:.3f}s "
                    f"(+{delta:.0%}, allowed +{allowed:.0%})")
            elif delta < 0:
                marker = "improved"
            print(f"  {marker:>10}  {name}: {base_s:.3f}s -> median {median:.3f}s "
                  f"of {len(samples)} (MAD {mad:.3f}s, {delta:+.1%}, allowed +{allowed:.0%})")

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

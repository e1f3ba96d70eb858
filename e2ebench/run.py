#!/usr/bin/env python3
"""Builds the e2ebench driver from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload commute --seed 1 --seconds 20 --trace 0

Workloads: commute, stress, tools, or `all` for each in turn (one
"<workload>: <result>" line each). With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics and the spans are written as a
Chrome trace into the build directory. Any further flags (--expected,
--record, --trace-out) go to the driver unchanged; see driver.cpp.

The driver and the evsys libraries it links are built with CMake into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench). Build output
goes to standard error, so standard output carries only the driver's.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build(out):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: evsys sources not found under " + ROOT, file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2ebench", "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("e2ebench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "e2ebench")


def main(argv):
    if "--workload" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    out = build_dir()
    driver = build(out)
    if driver is None:
        return 1
    workload = argv[argv.index("--workload") + 1]
    if workload == "all":
        # Every workload of BENCHMARK.json in turn, one result line each.
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        rc = 0
        for name in names:
            rest = list(argv)
            rest[argv.index("--workload") + 1] = name
            rest += ["--trace-out", os.path.join(out, name + ".trace.json")]
            proc = subprocess.run([driver, "--root", ROOT] + rest, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print(name + ": " + (lines[-1] if lines else "no result"), flush=True)
            rc = rc or proc.returncode
        return rc
    args = [driver, "--root", ROOT] + argv
    if "--trace-out" not in argv:
        args += ["--trace-out", os.path.join(out, workload + ".trace.json")]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

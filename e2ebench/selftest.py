#!/usr/bin/env python3
"""Self-test of the e2ebench benchmark. Run from the repository root:

    python3 e2ebench/selftest.py

It checks that
  1. a timed run of the pinned seed passes verification and prints every
     end-to-end metric of BENCHMARK.json with its unit;
  2. a perturbed committed digest makes the same run fail: `failed` > 0,
     `correct` false, and the differing output is named on stderr;
  3. a traced run prints every per-layer metric with its unit.
Exits 0 when all hold, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = "tools"
SEED = 1
PERTURBED_OUTPUT = "check"


def run(extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD,
           "--seed", str(SEED), "--seconds", "1"] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("run failed (%d): %s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def expect_metrics(result, specs):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    assert got == want, "metrics differ from BENCHMARK.json: %s" % sorted(
        set(got.items()) ^ set(want.items()))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    result, _ = run(["--trace", "0"])
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] > 0, result
    expect_metrics(result, bench["end_to_end"])
    print("selftest: timed run verified, end-to-end metrics and units complete")

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    perturbed = os.path.join(build, "selftest_digests.txt")
    lines, hit = [], False
    with open(os.path.join(HERE, "expected_digests.txt")) as f:
        for line in f:
            fields = line.split()
            if fields[:3] == [WORKLOAD, str(SEED), PERTURBED_OUTPUT]:
                digest = fields[3]
                fields[3] = ("1" if digest[0] == "0" else "0") + digest[1:]
                line, hit = " ".join(fields) + "\n", True
            lines.append(line)
    assert hit, "no committed digest for %s seed %d" % (WORKLOAD, SEED)
    os.makedirs(build, exist_ok=True)
    with open(perturbed, "w") as f:
        f.writelines(lines)
    result, stderr = run(["--trace", "0", "--expected", perturbed])
    assert not result["correct"] and result["failed"] > 0, result
    assert "output '%s' differs" % PERTURBED_OUTPUT in stderr, stderr
    print("selftest: perturbed digest raised failed to %d of %d"
          % (result["failed"], result["attempted"]))

    result, _ = run(["--trace", "1"])
    assert result["correct"] and result["failed"] == 0, result
    expect_metrics(result, bench["per_layer"])
    print("selftest: traced run prints every per-layer metric with its unit")
    print("selftest: ok")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print("selftest: FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)

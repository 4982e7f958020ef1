#!/usr/bin/env python3
"""Runs one workload of the RLS performance benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds perfbench/ together
with the RLS sources under src/ (CMake, Release) into .bench_build/;
later runs only rebuild what changed. The readable summary of rls_perf is
echoed, and the last line printed is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Exit codes: 0 correct; 1 a wrong answer or failed call; 2 bad usage, an
unknown workload or a build / set-up failure; 3 an invalid open loop;
4 a hung run; 5 the metrics of rls_perf do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "rls_perf")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds rls_perf; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def expected_metrics(spec, trace):
    """{name: unit} the result must carry for this trace mode."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        log(f"cannot read BENCHMARK.json: {error}")
        return 2
    if not build():
        return 2
    # Write the build's output back to disk now, so its writeback does not
    # compete with the measured phases of the first run.
    os.sync()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"rls_perf did not finish within {RUN_TIMEOUT_S} s")
        return 4
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode not in (0, 1) or not lines:
        log(f"rls_perf exited with code {done.returncode}")
        return done.returncode or 2

    result = json.loads(lines[-1])
    want = expected_metrics(spec, args.trace)
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"units {sorted(n for n in want if n in got and got[n] != want[n])}")
        return 5
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

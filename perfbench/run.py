#!/usr/bin/env python3
"""Create-path benchmark entry point.

Builds the benchmark from source (perfbench/CMakeLists.txt compiles the
repository's src/ tree) into .bench_build/perfbench, runs the statistics
self-test, runs one workload, enforces the exact-count guard and prints the
result as the last line of standard output:

    python3 perfbench/run.py --workload clone_pipeline --seed 1 \\
        --seconds 15 --trace 0

Exit status is non-zero, with no result line, when the build or the
self-test fails; and non-zero, after the result line, when an output check
or the exact-count guard fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-run"
EXACT = ROOT / ".bench_build" / "perfbench-exact"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure and build incrementally (a no-op build takes well under a
    second); logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def check_exact(args, exact):
    """Counts that must repeat exactly across runs of one seed of one
    program: the first run records them, every later run must reproduce
    them.  The key holds the benchmark binary's digest, so a changed
    program starts a fresh record instead of failing against the old one."""
    digest = hashlib.sha256((BUILD / "perfbench").read_bytes()).hexdigest()
    EXACT.mkdir(parents=True, exist_ok=True)
    path = EXACT / (f"{args.workload}-s{args.seed}-n{args.seconds}"
                    f"-t{args.trace}-{digest[:16]}.json")
    if not path.exists():
        path.write_text(json.dumps(exact, sort_keys=True))
        return []
    recorded = json.loads(path.read_text())
    return [f"{key}: recorded {recorded[key]!r}, now {value!r}"
            for key, value in sorted(exact.items())
            if key in recorded and recorded[key] != value]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    selftest = subprocess.run([str(BUILD / "perfbench_stats_test")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("statistics self-test failed")
        return 1

    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(WORK)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from the benchmark (exit {run.returncode})")
        return 1

    mismatches = check_exact(args, raw["exact"])
    for mismatch in mismatches:
        log(f"exact count differs from an earlier run of this seed: {mismatch}")
    correct = bool(raw["correct"]) and not mismatches
    failed = int(raw["failed"]) + len(mismatches)

    print("env " + json.dumps(raw["env"], sort_keys=True))
    print("exact " + json.dumps(raw["exact"], sort_keys=True))
    print("detail " + json.dumps(raw["detail"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": failed, "metrics": raw["metrics"]}))
    return 0 if correct and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

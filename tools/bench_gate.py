#!/usr/bin/env python3
"""Gate CI on a bench binary's BENCH_JSON output.

Reads BENCH_JSON lines (from a file or stdin) emitted by a bench binary
and compares them against a baseline file (bench/baselines/*.json). A
baseline opts into gates by including the matching key:

  * "throughput_floor": {name: floor} — each named measurement's
    throughput_vm_s must reach floor * (1 - max_regression_pct/100);
  * "metric_floors": {name: {metric: floor}} — like throughput_floor but
    for arbitrary metrics (e.g. hit_rate), same regression allowance;
  * "must_exceed": [{"left": name.metric, "right": name.metric,
    "min_ratio": r}] — cross-measurement ordering gates, e.g. the GDSF
    churn hit rate must exceed LRU's at equal quota;
  * "min_speedup_c16" — "create.speedup.c16" (concurrent pipeline vs the
    serialized baseline at 16 clients) must reach it, but only on hosts
    with at least min_cores_for_speedup_gate cores, since the pipeline
    cannot beat a serialized memcpy on a single-core runner;
  * any measurement reporting failures != 0 fails the gate outright.

A result whose "store.fs" row (the file system of the bench's artefact
store) names anything but tmpfs or ramfs is refused as bad input: a
disk-backed store measures the disk and its other tenants, not the
program, so its figures cannot be compared with a baseline.

Exit status 0 = pass, 1 = regression, 2 = bad input.
"""
import argparse
import json
import re
import sys

BENCH_LINE = re.compile(r"^BENCH_JSON\s+(\{.*\})\s*$")
MEMORY_FILESYSTEMS = ("tmpfs", "ramfs")


def parse_bench_lines(stream):
    results = {}
    for line in stream:
        match = BENCH_LINE.match(line.strip())
        if not match:
            continue
        record = json.loads(match.group(1))
        results[record["name"]] = record
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="baseline JSON (bench/baselines/concurrency.json)")
    parser.add_argument("--results", default="-",
                        help="file with BENCH_JSON lines (default: stdin)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)

    if args.results == "-":
        results = parse_bench_lines(sys.stdin)
    else:
        with open(args.results) as f:
            results = parse_bench_lines(f)

    if not results:
        print("bench_gate: no BENCH_JSON lines found in input", file=sys.stderr)
        return 2

    store = results.get("store.fs")
    if store is not None and store.get("fs") not in MEMORY_FILESYSTEMS:
        print(f"bench_gate: refusing the result: its store is on "
              f"{store.get('fs', 'unknown')}, not a memory-backed file "
              "system (set TMPDIR to a directory on tmpfs, e.g. under "
              "/dev/shm)", file=sys.stderr)
        return 2

    max_regression = baseline.get("max_regression_pct", 20) / 100.0
    failures = []

    for record in results.values():
        if record.get("failures", 0):
            failures.append(f"{record['name']}: {record['failures']} "
                            "creations failed")

    for name, floor in baseline.get("throughput_floor", {}).items():
        record = results.get(name)
        if record is None:
            failures.append(f"{name}: measurement missing from bench output")
            continue
        measured = record.get("throughput_vm_s", 0.0)
        allowed = floor * (1.0 - max_regression)
        verdict = "ok" if measured >= allowed else "REGRESSED"
        print(f"{name:24s} {measured:10.1f} vm/s  "
              f"(floor {floor:.1f}, allowed >= {allowed:.1f})  {verdict}")
        if measured < allowed:
            failures.append(f"{name}: {measured:.1f} vm/s is below "
                            f"{allowed:.1f} (floor {floor:.1f} - "
                            f"{max_regression:.0%})")

    for name, metrics in baseline.get("metric_floors", {}).items():
        record = results.get(name)
        if record is None:
            failures.append(f"{name}: measurement missing from bench output")
            continue
        for metric, floor in metrics.items():
            measured = record.get(metric, 0.0)
            allowed = floor * (1.0 - max_regression)
            verdict = "ok" if measured >= allowed else "REGRESSED"
            print(f"{name + '.' + metric:24s} {measured:10.4f}      "
                  f"(floor {floor:.4f}, allowed >= {allowed:.4f})  {verdict}")
            if measured < allowed:
                failures.append(f"{name}.{metric}: {measured:.4f} is below "
                                f"{allowed:.4f} (floor {floor:.4f} - "
                                f"{max_regression:.0%})")

    def lookup(dotted):
        name, _, metric = dotted.rpartition(".")
        record = results.get(name)
        if record is None or metric not in record:
            return None
        return float(record[metric])

    for rule in baseline.get("must_exceed", []):
        left, right = rule["left"], rule["right"]
        min_ratio = rule.get("min_ratio", 1.0)
        lhs, rhs = lookup(left), lookup(right)
        if lhs is None or rhs is None:
            missing = left if lhs is None else right
            failures.append(f"must_exceed: {missing} missing from bench output")
            continue
        ratio = lhs / rhs if rhs else float("inf")
        verdict = "ok" if ratio >= min_ratio else "REGRESSED"
        print(f"{left:24s} {ratio:10.4f}x     "
              f"(vs {right}, required >= {min_ratio:.2f}x)  {verdict}")
        if ratio < min_ratio:
            failures.append(f"must_exceed: {left} ({lhs:.4f}) is only "
                            f"{ratio:.2f}x of {right} ({rhs:.4f}), "
                            f"needs {min_ratio:.2f}x")

    speedup_record = results.get("create.speedup.c16")
    min_speedup = baseline.get("min_speedup_c16")
    min_cores = baseline.get("min_cores_for_speedup_gate", 4)
    if min_speedup is None:
        pass  # baseline doesn't gate the pipeline speedup
    elif speedup_record is None:
        failures.append("create.speedup.c16: measurement missing")
    else:
        speedup = speedup_record.get("speedup", 0.0)
        cores = speedup_record.get("cores", 0)
        if cores >= min_cores:
            verdict = "ok" if speedup >= min_speedup else "REGRESSED"
            print(f"{'create.speedup.c16':24s} {speedup:10.2f}x     "
                  f"(required >= {min_speedup:.1f}x on {cores} cores)  "
                  f"{verdict}")
            if speedup < min_speedup:
                failures.append(f"create.speedup.c16: {speedup:.2f}x is below "
                                f"the {min_speedup:.1f}x floor "
                                f"({cores} cores)")
        else:
            print(f"{'create.speedup.c16':24s} {speedup:10.2f}x     "
                  f"(informational: only {cores} core(s), gate needs "
                  f">= {min_cores})")

    if failures:
        print("\nbench_gate: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())

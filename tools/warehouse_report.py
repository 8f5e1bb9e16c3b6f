#!/usr/bin/env python3
"""Summarize warehouse lifecycle churn: hit rates, evictions, reclaimed bytes.

Accepts either (auto-detected per line, both may be mixed in one input):

  * BENCH_JSON lines from bench/warehouse_churn —
        BENCH_JSON {"name": "churn.gdsf", "hit_rate": 0.58, ...}
    rendered as a per-policy hit/miss table;

  * metrics-export JSONL (FleetAggregator::export_jsonl, or any file of
    {"id": ..., "attrs": {...}} ads) — the lifecycle_* attributes
    (lifecycle.* metric names in their classad-folded spelling) are
    rendered as a lease/eviction/reclaim summary per exporting plant.

The binary event journal itself is decoded by `vmp_inspect journal DIR`.

Usage:
    build/bench/warehouse_churn | python3 tools/warehouse_report.py -
    python3 tools/warehouse_report.py fleet.jsonl [--json]
"""

import argparse
import json
import re
import sys

BENCH_LINE = re.compile(r"^BENCH_JSON\s+(\{.*\})\s*$")


def load(stream):
    """Split input lines into churn records and lifecycle ads."""
    churn = {}
    ads = []
    for line in stream:
        line = line.strip()
        match = BENCH_LINE.match(line)
        if match:
            record = json.loads(match.group(1))
            name = record.get("name", "")
            if name.startswith("churn."):
                churn[name[len("churn."):]] = record
            continue
        if not line.startswith("{"):
            continue
        try:
            ad = json.loads(line)
        except json.JSONDecodeError:
            continue
        attrs = ad.get("attrs", {})
        if any(key.startswith("lifecycle_") for key in attrs):
            ads.append(ad)
    return churn, ads


def churn_summary(churn):
    policies = {}
    for policy, record in sorted(churn.items()):
        hits = int(record.get("hits", 0))
        misses = int(record.get("misses", 0))
        total = hits + misses
        policies[policy] = {
            "hit_rate": float(record.get("hit_rate",
                                         hits / total if total else 0.0)),
            "hits": hits,
            "misses": misses,
            "rejected_publishes": int(record.get("failures", 0)),
        }
    return policies


def print_churn(policies):
    header = f"{'policy':<8} {'hit-rate':>9} {'hits':>8} {'misses':>8} {'rejected':>9}"
    print(header)
    print("-" * len(header))
    for policy, row in policies.items():
        print(f"{policy:<8} {row['hit_rate']:>9.4f} {row['hits']:>8} "
              f"{row['misses']:>8} {row['rejected_publishes']:>9}")
    if "gdsf" in policies and "lru" in policies and policies["lru"]["hit_rate"]:
        ratio = policies["gdsf"]["hit_rate"] / policies["lru"]["hit_rate"]
        print(f"\ngdsf/lru hit-rate ratio: {ratio:.2f}x at equal quota")


def lifecycle_summary(ads):
    """Latest lifecycle_* attrs per ad id (a plant, or obs://metrics)."""
    plants = {}
    for ad in ads:
        attrs = ad.get("attrs", {})
        hit = int(attrs.get("lifecycle_lease_hit_count", 0))
        miss = int(attrs.get("lifecycle_lease_miss_count", 0))
        total = hit + miss
        plants[ad.get("id", "?")] = {
            "lease_hits": hit,
            "lease_misses": miss,
            "lease_hit_rate": hit / total if total else 1.0,
            "evictions": int(attrs.get("lifecycle_evict_count", 0)),
            "zombie_evictions": int(attrs.get("lifecycle_evict_zombie_count", 0)),
            "zombie_reaps": int(attrs.get("lifecycle_reap_count", 0)),
            "orphan_reaps": int(attrs.get("lifecycle_orphan_reap_count", 0)),
            "rejected_publishes": int(
                attrs.get("lifecycle_publish_reject_count", 0)),
            "bytes_reclaimed": int(
                attrs.get("lifecycle_bytes_reclaimed_count", 0)),
            "used_bytes": int(attrs.get("lifecycle_used_bytes_gauge", 0)),
            "zombies_now": int(attrs.get("lifecycle_zombies_gauge", 0)),
        }
    return plants


def print_lifecycle(plants):
    header = (f"{'source':<24} {'lease-hit%':>10} {'evict':>6} {'zombie':>7} "
              f"{'reaped':>7} {'orphans':>8} {'reject':>7} "
              f"{'reclaimed MB':>13} {'used MB':>9} {'zombies':>8}")
    print(header)
    print("-" * len(header))
    for source in sorted(plants):
        row = plants[source]
        print(f"{source:<24} {row['lease_hit_rate'] * 100:>9.1f}% "
              f"{row['evictions']:>6} {row['zombie_evictions']:>7} "
              f"{row['zombie_reaps']:>7} {row['orphan_reaps']:>8} "
              f"{row['rejected_publishes']:>7} "
              f"{row['bytes_reclaimed'] / 2**20:>13.1f} "
              f"{row['used_bytes'] / 2**20:>9.1f} {row['zombies_now']:>8}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input",
                        help="BENCH_JSON / metrics-JSONL file, or - for stdin")
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable summary object")
    args = parser.parse_args()

    if args.input == "-":
        churn, ads = load(sys.stdin)
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            churn, ads = load(fh)

    policies = churn_summary(churn)
    plants = lifecycle_summary(ads)
    if not policies and not plants:
        print("no churn BENCH_JSON lines or lifecycle_* ads found",
              file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps({"churn": policies, "lifecycle": plants}, indent=2))
        return 0

    if policies:
        print_churn(policies)
    if plants:
        if policies:
            print()
        print_lifecycle(plants)
    return 0


if __name__ == "__main__":
    sys.exit(main())

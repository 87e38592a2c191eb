#!/usr/bin/env python3
"""Writes the index over the structured results: every BENCH_*.json with its
bench name, schema and metric names (and, for the micro reports, their
google-benchmark names), plus the pinned adversarial scenario corpus
(scenarios/*.json, replayed by bench_adversarial), so tooling can discover
the exhibits without globbing. The index depends only on those files: no
timestamps, entries sorted by file name.

Usage: scripts/index_results.py [results-dir] [output]
Run from the checkout root; the directory defaults to results/ and the
output to <results-dir>/INDEX.json. Exits 1 when a report does not parse.
"""

import glob
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def bench_entry(path, doc):
    metrics = doc.get("metrics", [])
    entry = {
        "file": path,
        "bench": doc.get("bench", ""),
        "schema": doc.get("schema", ""),
        "metrics": sorted({m.get("name", "") for m in metrics}),
    }
    # Micro reports label every metric with its google-benchmark name.
    benchmarks = sorted({m["labels"]["benchmark"] for m in metrics
                         if "benchmark" in m.get("labels", {})})
    if benchmarks:
        entry["benchmarks"] = benchmarks
    return entry


def scenario_entry(path, doc):
    pin = doc.get("pin", {})
    return {
        "file": path,
        "name": doc.get("name", ""),
        "schema": doc.get("schema", ""),
        "nodes": doc.get("nodes", 0),
        "pinned_p99_seconds": pin.get("p99_seconds", 0.0),
        "pinned_degraded_fraction": pin.get("degraded_fraction", 0.0),
        "baseline_p99_seconds": pin.get("baseline_p99_seconds", 0.0),
    }


def main():
    results = sys.argv[1] if len(sys.argv) > 1 else "results"
    output = sys.argv[2] if len(sys.argv) > 2 else os.path.join(results,
                                                                "INDEX.json")
    benches = []
    scenarios = []
    try:
        for path in sorted(glob.glob(os.path.join(results, "BENCH_*.json"))):
            benches.append(bench_entry(path, load(path)))
        for path in sorted(glob.glob(os.path.join(results, "scenarios",
                                                  "*.json"))):
            scenarios.append(scenario_entry(path, load(path)))
    except (OSError, json.JSONDecodeError) as err:
        print(f"index_results: {err}", file=sys.stderr)
        return 1
    index = {
        "schema": "qadist-bench-index-v2",
        "benches": benches,
        "adversarial_scenarios": scenarios,
    }
    with open(output, "w") as f:
        json.dump(index, f, indent=2)
        f.write("\n")
    print(f"{output} indexes {len(benches)} reports and {len(scenarios)} "
          f"pinned adversarial scenarios.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Regenerates every deterministic artifact under results/ and diffs it
# against the committed one: the paper's tables and figures, the extension
# benches with their traces and time series, the pinned adversarial corpus
# replay, and the example programs. Every simulated number is
# bit-deterministic, so the two trees must match byte for byte. A change
# that moves a number commits the new artifacts, and `diff -u` shows each
# moved metric (BENCH_*.json hold one metric per line) with both values.
# The check also fails when a bench or example exits non-zero, stops
# writing a committed artifact, or writes one that is not committed.
#
# results/INDEX.json is rebuilt from the committed reports and scenarios
# (scripts/index_results.py), so a report missing from the index, or an
# entry whose metrics moved, fails the diff too.
#
# The host-timed reports (table 2, host partitioning, the micro benches)
# move from run to run, so they are regenerated but left out of the diff:
# each must hold the same (metric name, labels) keys as the committed one,
# and no value is compared. The micro benches run with a short
# --benchmark_min_time. Left out entirely: results/tests.txt and the
# scenario corpus, which bench_adversarial reads.
#
# Usage: scripts/check_results.sh [build-dir]
# The build directory defaults to build/ and, like the fresh tree it
# writes (full_results/), is taken relative to the checkout root.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"
BUILD_DIR="${1:-build}"
OUT=full_results

# Slowest first, so the parallel runs below finish close together.
ARTIFACTS=(
  bench_selective_search bench_ablations bench_table5_throughput
  bench_table6_latency bench_table7_migrations bench_table3_resource_weights
  bench_table4_practical_limits bench_table8_module_times
  bench_table9_overhead bench_table10_analytical_vs_measured
  bench_table11_partitioning bench_fig7_traces bench_fig8_inter_speedup
  bench_fig9_intra_speedup bench_fig10_chunk_granularity
  bench_tail_tolerance bench_fault_recovery bench_network_faults
  bench_attribution bench_elastic_membership bench_cache_scaling
  bench_shard_scaling bench_capacity_planning bench_adversarial
  example_cluster_simulation example_evaluation_report
  example_failure_recovery example_parallel_host example_persistence_tour
  example_quickstart bench_host_partitioning bench_table2_module_breakdown
  bench_micro_ir bench_micro_qa bench_micro_sched bench_micro_simnet
)
HOST_TIMED=(
  host_partitioning table2_module_breakdown micro_ir micro_qa micro_sched
  micro_simnet
)

# run <artifact>: runs one bench (with --out) or example and captures its
# stdout as <artifact>.txt. persistence_tour prints the path it saves to,
# so it runs with the default temporary directory.
run() {
  local name=$1
  case "$name" in
    bench_micro_*)
      QADIST_RESULTS_DIR="$OUT" "$BUILD_DIR/bench/$name" \
        --benchmark_min_time=0.01 > "$OUT/$name.txt" ;;
    bench_*) "$BUILD_DIR/bench/$name" --out "$OUT" > "$OUT/$name.txt" ;;
    example_persistence_tour)
      TMPDIR=/tmp "$BUILD_DIR/examples/persistence_tour" > "$OUT/$name.txt" ;;
    example_*) "$BUILD_DIR/examples/${name#example_}" > "$OUT/$name.txt" ;;
  esac || { echo "FAIL: $name exited non-zero" >&2; return 1; }
}
export -f run
export BUILD_DIR OUT

rm -rf "$OUT"
mkdir -p "$OUT"
status=0
printf '%s\n' "${ARTIFACTS[@]}" |
  xargs -P "$(nproc)" -n 1 bash -c 'run "$1"' _ || status=1

python3 -c '
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        json.load(f)
' "$OUT"/*.json || status=1
python3 scripts/index_results.py results "$OUT/INDEX.json" > /dev/null ||
  status=1

python3 - "$OUT" "${HOST_TIMED[@]}" <<'EOF' || status=1
import collections, json, os, sys

def keys(path):
    with open(path) as f:
        metrics = json.load(f)["metrics"]
    return collections.Counter(
        (m["name"], tuple(sorted(m["labels"].items()))) for m in metrics)

fresh_dir, names = sys.argv[1], sys.argv[2:]
ok = True
for name in names:
    report = f"BENCH_{name}.json"
    if not os.path.exists(f"{fresh_dir}/{report}"):
        print(f"{report}: not regenerated")
        ok = False
        continue
    want = keys(f"results/{report}")
    got = keys(f"{fresh_dir}/{report}")
    for key in sorted((want - got).keys()):
        print(f"{report}: committed metric not regenerated: {key}")
    for key in sorted((got - want).keys()):
        print(f"{report}: regenerated metric not committed: {key}")
    ok = ok and want == got
sys.exit(0 if ok else 1)
EOF

diff -ru -x tests.txt -x scenarios -x '*micro_*' \
  -x '*host_partitioning*' -x '*table2_module_breakdown*' \
  results "$OUT" || status=1
exit "$status"

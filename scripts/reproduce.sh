#!/usr/bin/env bash
# Builds everything, runs the full test suite, and regenerates every paper
# exhibit into results/. Usage: scripts/reproduce.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

cmake -B "$BUILD_DIR" -G Ninja
cmake --build "$BUILD_DIR"

mkdir -p results

echo "== tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure 2>&1 | tee results/tests.txt

# Every harness must exist, be runnable, and exit zero — a bench that
# silently vanishes or crashes is a coverage loss, so the script fails
# loudly instead of skipping it (pipefail makes the tee pipelines honor
# the binary's exit status).
failures=()

echo "== benches =="
bench_count=0
for b in "$BUILD_DIR"/bench/bench_*; do
  [ -f "$b" ] || continue
  name="$(basename "$b")"
  if [ ! -x "$b" ]; then
    echo "ERROR: $name exists but is not executable"
    failures+=("$name (not executable)")
    continue
  fi
  bench_count=$((bench_count + 1))
  echo "-- $name"
  if ! "$b" | tee "results/$name.txt"; then
    echo "ERROR: $name exited non-zero"
    failures+=("$name")
  fi
done
if [ "$bench_count" -eq 0 ]; then
  echo "ERROR: no bench binaries found under $BUILD_DIR/bench"
  failures+=("no bench binaries")
fi

echo "== examples =="
for e in "$BUILD_DIR"/examples/*; do
  [ -f "$e" ] || continue
  name="$(basename "$e")"
  case "$name" in *.cmake | Makefile | *.ninja*) continue ;; esac
  if [ ! -x "$e" ]; then
    echo "ERROR: example $name exists but is not executable"
    failures+=("example_$name (not executable)")
    continue
  fi
  echo "-- $name"
  if ! "$e" | tee "results/example_$name.txt"; then
    echo "ERROR: example $name exited non-zero"
    failures+=("example_$name")
  fi
done

# Structured twins: benches emit machine-readable BENCH_<name>.json
# (schema qadist-bench-v1) next to the text tables, and bench_fig7_traces
# exports TRACE_*.jsonl / TRACE_*.chrome.json (open the latter in
# https://ui.perfetto.dev). List and sanity-check them.
echo "== structured results =="
json_count=0
for j in results/BENCH_*.json; do
  [ -f "$j" ] || continue
  json_count=$((json_count + 1))
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$j" > /dev/null || echo "WARNING: invalid JSON: $j"
  fi
  echo "-- $j"
done
echo "$json_count bench JSON reports in results/."

# One index over all structured reports (results/INDEX.json), built from
# the committed files alone; scripts/check_results.sh rebuilds it and
# fails when the committed one differs.
if ! python3 scripts/index_results.py results; then
  failures+=("results/INDEX.json")
fi

if [ "${#failures[@]}" -gt 0 ]; then
  echo "REPRODUCE FAILED — ${#failures[@]} harness(es) missing or broken:"
  printf '  %s\n' "${failures[@]}"
  exit 1
fi

echo "All outputs written to results/."

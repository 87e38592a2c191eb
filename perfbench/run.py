#!/usr/bin/env python3
"""The qadist benchmark: builds the harness from source and runs workloads.

One run:

    python3 perfbench/run.py --workload qa-serial --seed 1 --seconds 10 --trace 0

prints the human-readable metrics, a `manifest: {...}` line, and as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}; metrics
are the end-to-end ones (--trace 0) or the per-layer ones (--trace 1).
It exits 1 when a correctness check failed.

Other modes:

    python3 perfbench/run.py --all [--seconds S]     every workload, both runs
    python3 perfbench/run.py --self-test             helper tests + sensitivity
    python3 perfbench/run.py --spread N --workload W spread over N seeds

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BINARY = BUILD / "qadist_perfbench"
TESTS = BUILD / "perfbench_tests"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
PAIRS = 3  # baseline/perturbed pairs per sensitivity case

# Metrics that are bit-deterministic for a given seed on a workload: the
# comparison flags any change in them, not only changes past the bound.
SIM_WORKLOADS = ("sim-paper", "sim-fleet")
DETERMINISTIC_E2E = {"answered_fraction", "answer_mrr"}
DETERMINISTIC_SIM_E2E = {"latency_p50_ms", "latency_p99_ms", "throughput_qpm"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"qadist sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")


def source_digest():
    """sha256 over the library and benchmark sources (the manifest's build id
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def run_once(workload, seed, seconds, trace, perturb="none"):
    """Runs the harness once; returns (exit code, stdout lines, result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--perturb", perturb]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT} s", 3)
    if out.stderr:
        log(out.stderr.rstrip())
    lines = out.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return out.returncode, lines, result


def single_run(args):
    build()
    code, lines, result = run_once(args.workload, args.seed, args.seconds,
                                   args.trace)
    if result is None:
        print("\n".join(lines))
        fail(f"{args.workload} printed no result (exit {code})", code or 3)
    for line in lines[:-1]:
        if line.startswith("MANIFEST "):
            manifest = json.loads(line[len("MANIFEST "):])
            manifest["git_sha"] = git_sha()
            manifest["source_digest"] = source_digest()
            print("manifest: " + json.dumps(manifest))
        else:
            print(line)
    print(json.dumps(result), flush=True)
    return code


def load_definition():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def regressions(definition, workload, base, new):
    """End-to-end metrics of `new` worse than `base` by more than their
    bound, or changed at all where deterministic on this workload."""
    deterministic = set(DETERMINISTIC_E2E)
    if workload in SIM_WORKLOADS:
        deterministic |= DETERMINISTIC_SIM_E2E
    flagged = []
    for metric in definition["end_to_end"]:
        name = metric["name"]
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        if name in deterministic:
            if n != b:
                flagged.append(name)
            continue
        worse = (n - b) if metric["better"] == "lower" else (b - n)
        if b != 0 and worse / abs(b) > metric["bound"]:
            flagged.append(name)
    return flagged


def layer_mover(base, new, candidates):
    """The per-layer metric among `candidates` with the largest relative
    change, and that change."""
    best, best_change = None, 0.0
    for name in candidates:
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        if b == 0:
            continue
        change = abs(n - b) / abs(b)
        if change > best_change:
            best, best_change = name, change
    return best, best_change


def median_result(results):
    """One result whose every metric is the median over `results`."""
    merged = json.loads(json.dumps(results[0]))
    for name, metric in merged["metrics"].items():
        metric["value"] = statistics.median(
            r["metrics"][name]["value"] for r in results)
    return merged


def check_definition(definition, problems):
    """BENCHMARK.json and the harness agree on workloads and metrics."""
    out = subprocess.run([str(BINARY), "--list"], capture_output=True,
                         text=True, check=True).stdout.split("\n")
    listed = {kind: [] for kind in ("workload", "end_to_end", "per_layer")}
    for line in out:
        if line:
            kind, name, *unit = line.split()
            listed[kind].append((name, unit[0]) if unit else name)
    if [w["name"] for w in definition["workloads"]] != listed["workload"]:
        problems.append("BENCHMARK.json workloads differ from the harness")
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in definition[kind]]
        if declared != listed[kind]:
            problems.append(f"BENCHMARK.json {kind} differs from the harness")


def self_test(args):
    build()
    problems = []
    if subprocess.run([str(TESTS)]).returncode != 0:
        problems.append("helper tests failed")
    definition = load_definition()
    check_definition(definition, problems)

    seconds = args.seconds if args.seconds_given else 3
    cases = [
        # (workload, perturbation, expected e2e metrics, layer candidates,
        #  expected layer mover)
        ("sim-paper", "ps-double", {"latency_p50_ms", "latency_p99_ms"},
         lambda n: n.startswith("cluster.") or n == "simnet.network_share",
         "cluster.ps_share"),
        ("qa-serial", "score-twice", {"latency_p50_ms", "latency_p99_ms"},
         lambda n: n.startswith("qa.") and n.endswith(("_ms", "_us_per_paragraph")),
         "qa.ps_us_per_paragraph"),
    ]
    for workload, perturb, expect, is_candidate, mover in cases:
        # Alternating pairs, compared by their medians, so a noisy moment
        # of the machine does not decide the outcome.
        samples = {}
        for _ in range(PAIRS):
            for trace in (0, 1):
                for p in ("none", perturb):
                    code, _, result = run_once(workload, 1, seconds, trace, p)
                    if result is None or (p == "none" and code != 0):
                        problems.append(f"{workload} {p} trace={trace} failed")
                        continue
                    samples.setdefault((trace, p), []).append(result)
        if any(len(v) != PAIRS for v in samples.values()) or len(samples) != 4:
            continue
        runs = {key: median_result(v) for key, v in samples.items()}
        flagged = regressions(definition, workload, runs[(0, "none")],
                              runs[(0, perturb)])
        candidates = [m["name"] for m in definition["per_layer"]
                      if is_candidate(m["name"])]
        moved, change = layer_mover(runs[(1, "none")],
                                    runs[(1, perturb)], candidates)
        print(f"{workload} with {perturb}: flagged {sorted(flagged)}; "
              f"largest layer move {moved} ({change:+.0%})")
        if not expect & set(flagged):
            problems.append(f"{workload} {perturb}: expected one of "
                            f"{sorted(expect)} flagged, got {flagged}")
        if moved != mover:
            problems.append(f"{workload} {perturb}: expected {mover} to "
                            f"move most, got {moved}")
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    if not problems:
        print("self-test passed")
    return 1 if problems else 0


def run_all(args):
    build()
    definition = load_definition()
    status = 0
    table = []
    for w in definition["workloads"]:
        for trace in (0, 1):
            code, lines, result = run_once(w["name"], args.seed, args.seconds,
                                           trace)
            print("\n".join(lines[:-1]))
            print()
            status = status or code or (0 if result else 3)
            if result and trace == 0:
                table.append((w["name"], result))
    print("end-to-end summary (seed %d):" % args.seed)
    for m in definition["end_to_end"]:
        row = "  %-22s %-9s" % (m["name"], m["unit"])
        for _, result in table:
            row += " %14.6g" % result["metrics"][m["name"]]["value"]
        print(row)
    print("  %-32s" % "" + "".join(" %14s" % w for w, _ in table))
    return status


def spread(args):
    """The acceptance measure: quartile spread / median over N seeds."""
    build()
    values = {}
    for seed in range(1, args.spread + 1):
        code, _, result = run_once(args.workload, seed, args.seconds,
                                   args.trace)
        if result is None or not result["correct"]:
            fail(f"{args.workload} seed {seed} incorrect (exit {code})", 1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        q = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        s = (q[2] - q[0]) / med if med else 0.0
        print(f"{name:36s} median {med:14.6g} spread {s:6.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--spread", type=int, metavar="N")
    args = parser.parse_args()
    args.seconds_given = args.seconds is not None
    if args.seconds is None:
        args.seconds = 10
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.self_test:
        return self_test(args)
    if args.all:
        return run_all(args)
    if args.workload is None:
        fail("--workload is required")
    if args.spread:
        return spread(args)
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())

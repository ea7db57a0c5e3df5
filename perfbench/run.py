#!/usr/bin/env python3
"""End-to-end benchmark of the UniFabric simulator.

Builds the ufbench driver from the checkout's sources, runs one workload's
seeded open-loop schedule for the given host-time budget, checks the
outcome and prints every end-to-end metric by name and unit. With
--trace 1 it also runs one traced repetition, prints the per-layer metrics
and writes a Chrome trace (.bench_build/out/trace_<workload>_s<seed>.json).
The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the metrics BENCHMARK.json names (end_to_end, or per_layer with
--trace 1). `attempted` counts simulated repetitions of the schedule and
`failed` those that broke a correctness check.

Run from the repository root:
  python3 perfbench/run.py --workload heap_zipf --seed 1 --seconds 10 --trace 0
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import chrome_trace
import metrics

WORKLOADS = ("tenant_storm", "heap_zipf", "pod_allreduce")
DEFAULT_SEED = 1
# Held out: never used while the benchmark or a change is tuned; a claimed
# gain must also hold on it.
HELD_OUT_SEED = 90210

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path, or None on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: simulator sources not found under %s/src" % ROOT)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "ufbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return None
    return BUILD_DIR / "ufbench"


def declared_metrics(section):
    """Metric names BENCHMARK.json lists under `section`, or None without the file."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return [m["name"] for m in json.loads(path.read_text())[section]]


def print_metrics(title, values, detail=None):
    print(title)
    for name, (value, unit) in values.items():
        note = detail.get(name, "") if detail else ""
        print("  %-34s %16.6g %-6s %s" % (name, value, unit, note))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %d; %d is held out)" % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    driver = build()
    if driver is None:
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    raw_path = OUT_DIR / ("raw_%s_s%d_t%d.json" % (args.workload, args.seed, args.trace))
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(raw_path)]
    try:
        proc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return 2
    if proc.returncode != 0:
        log("perfbench: driver exited with %d" % proc.returncode)
        return 2
    raw = json.loads(raw_path.read_text())

    unifab_env = {k: v for k, v in os.environ.items() if k.startswith("UNIFAB_")}
    eng = raw["engine"]
    print("workload %s  seed %d  build %s  workers %d of %d shards (lookahead %g ns)  nproc %d  UNIFAB_* %s"
          % (raw["workload"], raw["seed"], raw["build"]["type"], eng["workers"], eng["shards"],
             eng["lookahead_ps"] / 1e3, eng["nproc"], unifab_env or "unset"))
    print("accuracy: unloaded 64 B remote load %.1f ns (sim) vs 1575 ns (paper Table 2), %+.2f%%"
          % (raw["remote_load_ns"], 100.0 * (raw["remote_load_ns"] / 1575.0 - 1.0)))

    errors = metrics.check(raw)
    e2e, detail = metrics.end_to_end(raw)
    lat = detail["latency"]
    notes = {
        "setup_s": "host, median of %d repetitions" % detail["reps"],
        "run_s": "host, Engine::Run, each stretch at its fastest of %d repetitions" % detail["reps"],
        "peak_rss_mb": "host, process high-water mark",
        "fg_p50_us": "sim, n=%d foreground ops, failures at the %.0f us ceiling" % (lat["n"], lat["ceiling_us"]),
        "fg_tail_us": "sim, p%g with %d ops beyond it" % (lat["tail_pct"], lat["tail_beyond"]),
        "fg_slo_ratio": "sim, within %.0f us" % raw["limit_us"],
        "fail_ratio": "sim, ops_issued=%d failed=%d" % (detail["ops_issued"], detail["ops_failed"]),
        "goodput_mbps": "sim, completed bytes / %.3f ms arrival horizon" % (raw["horizon_ps"] / 1e9),
    }
    print_metrics("end-to-end (tracing off):", e2e, notes)
    selected = e2e
    section = "end_to_end"

    if args.trace:
        layer = metrics.per_layer(raw)
        by_module = {}
        for name, value in layer.items():
            by_module.setdefault(name.rsplit(".", 1)[0], {})[name] = value
        for module, values in by_module.items():
            print_metrics("per-layer %s:" % module, values)
        spans = raw["trace"]["spans"]
        for span, self_us in zip(spans, metrics.span_self_times(spans)):
            if span["parent"] < 0:
                print("host span %-24s %12.1f us  self %12.1f us" % (span["name"], span["dur_us"], self_us))
        trace_path = OUT_DIR / ("trace_%s_s%d.json" % (raw["workload"], raw["seed"]))
        chrome_trace.write(trace_path, raw)
        print("tracing overhead: %+.4f s on run_s; trace written to %s"
              % (layer["sim.trace_overhead_s"][0], trace_path.relative_to(ROOT)))
        selected = layer
        section = "per_layer"

    names = declared_metrics(section)
    if names is None:
        names = list(selected)
    missing = [n for n in names if n not in selected]
    errors += [(-1, "metric %s is not computed" % n) for n in missing]
    for rep, msg in errors:
        log("CHECK FAILED: %s" % (msg if rep < 0 else "rep %d: %s" % (rep, msg)))

    failed_reps = len({rep for rep, _ in errors if rep >= 0})
    result = {
        "correct": not errors,
        "attempted": len(raw["reps"]),
        "failed": failed_reps,
        "metrics": {n: {"value": selected[n][0], "unit": selected[n][1]} for n in names if n in selected},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of moonbeam: one workload per invocation, one JSON line out.

    python3 bench/run.py --workload near-range --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Each invocation starts the workload in fresh interpreters: one untimed
start to byte-compile the program, SETUP_STARTS timed starts for the
set-up time, then one process that runs whole rounds of the workload's
operations, in an order drawn from --seed, until another round would
pass --seconds. Every output is checked against bench/reference.py
afterwards, outside the timed window.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced rounds, prints the per-layer metrics taken from the traced
ones, and writes the spans to .bench_run/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_STARTS = 5
#: Wall-clock limit for one invocation [s].
TIME_LIMIT = 170.0
#: Largest share of a traced operation's time that no traced layer may
#: account for; the layers' self times must add up to the operation.
UNATTRIBUTED_MAX_PCT = 1.0

#: One thread per numeric library: the program is driven from one
#: process with workers = 1 on a 2-core machine.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(deadline, *args):
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": os.path.join(ROOT, "src")}
    env.pop("MOONBEAM_OUTPUT_DIR", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the {TIME_LIMIT:g} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    src = os.path.join(ROOT, "src") + os.sep
    if not record["moonbeam_file"].startswith(src):
        raise BenchError(f"imported {record['moonbeam_file']}, not the checkout's src/")
    return record


def _check(checks, op, output):
    """Failed checks of one output; an output that cannot be read fails."""
    try:
        return checks.check(op, output, ROOT)
    except Exception as exc:  # a missing or malformed file is a wrong output
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def _trace_metrics(record):
    """Per-layer metrics per traced operation, and run-level trace checks."""
    from tracer import layer_totals

    traced = [r for r in record["results"] if r["traced"]]
    n = len(traced)
    with open(os.path.join(ROOT, record["span_file"])) as fh:
        spans = [json.loads(line) for line in fh]
    totals = layer_totals(spans)
    fails = []

    root_time = {}
    for s in spans:
        if s["parent"] is None:
            root_time[s["op"]] = root_time.get(s["op"], 0.0) + s["end"] - s["start"]
    op_time = sum(r["seconds"] for r in traced)
    unattributed = op_time - sum(root_time.values())
    unattributed_pct = 100.0 * unattributed / op_time
    if not 0.0 <= unattributed_pct <= UNATTRIBUTED_MAX_PCT:
        fails.append(f"layer self times cover {op_time - unattributed!r} s of {op_time!r} s")

    # Counts must repeat exactly from round to round.
    by_op = {}
    for r in traced:
        pairs = sum(s.get("pairs", 0) for s in spans if s["op"] == r["index"])
        by_op.setdefault(r["op"], set()).add(pairs)
    fails += [f"{name}: pairs differ between rounds {sorted(v)}" for name, v in by_op.items()
              if len(v) > 1]

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    m = {}

    def put(name, key, unit):
        m[f"{name}.{key}"] = {"value": get(name, key) / n, "unit": unit}

    fap = "diffraction.field_at_points"
    for key, unit in (("calls", "calls/op"), ("busy_s", "s/op"), ("pairs", "pairs/op")):
        put(fap, key, unit)
    m[f"{fap}.pairs_per_s"] = {"value": get(fap, "pairs") / get(fap, "busy_s"), "unit": "1/s"}
    for key, unit in (("calls", "calls/op"), ("busy_s", "s/op"), ("self_s", "s/op"),
                      ("points", "points/op")):
        put("receiver.panel_power", key, unit)
    for key, unit in (("calls", "calls/op"), ("busy_s", "s/op"), ("nodes", "nodes/op")):
        put("source.build_aperture_grid", key, unit)
    for key, unit in (("calls", "calls/op"), ("busy_s", "s/op"), ("forward_calls", "calls/op")):
        put("dust.calibrate_cext", key, unit)
    for key, unit in (("calls", "calls/op"), ("self_s", "s/op"), ("cells", "cells/op")):
        put("sweeps.run_sweep", key, unit)
    for key, unit in (("calls", "calls/op"), ("self_s", "s/op")):
        put("diffraction.compute_irradiance_map", key, unit)
    put("mapio.write", "busy_s", "s/op")
    put("mapio.write", "bytes", "bytes/op")
    put("cli.main", "self_s", "s/op")
    m["trace.overhead_pct"] = {
        "value": 100.0 * (record["traced_s"] / record["measured_s"] - 1.0), "unit": "%"}
    m["trace.unattributed_pct"] = {"value": unattributed_pct, "unit": "%"}
    return m, fails


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "moonbeam", "__init__.py")):
        raise BenchError(f"no program source at {os.path.join(ROOT, 'src', 'moonbeam')}")
    deadline = time.monotonic() + TIME_LIMIT
    _worker(deadline, workload, "setup")  # untimed: byte-compiles the program
    setups = [_worker(deadline, workload, "setup") for _ in range(SETUP_STARTS)]
    record = _worker(deadline, workload, "trace" if trace else "run", seed, seconds)

    import checks

    ops = {op["name"]: op for op in WORKLOADS[workload]}
    results = record["results"]
    failed = 0
    for r in results:
        r["check_failures"] = [] if r["error"] else _check(checks, ops[r["op"]], r["output"])
        if r["error"] is not None or r["check_failures"]:
            failed += 1
            print(f"FAILED {r['op']} #{r['index']}: {r['error'] or r['check_failures']}",
                  file=sys.stderr)
    run_fails = []
    if trace:
        metrics, run_fails = _trace_metrics(record)
        metrics["setup.import_s"] = {
            "value": statistics.median(s["import_s"] for s in setups), "unit": "s"}
        metrics["setup.inputs_s"] = {
            "value": statistics.median(s["inputs_s"] for s in setups), "unit": "s"}
    else:
        untraced = [r for r in results if not r["traced"]]
        completed = sum(1 for r in untraced if not (r["error"] or r["check_failures"]))
        metrics = {
            "setup_s": {"value": statistics.median(s["import_s"] + s["inputs_s"] for s in setups),
                        "unit": "s"},
            "ops_per_s": {"value": completed / record["measured_s"], "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(r["seconds"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MiB"},
        }
    for msg in run_fails:
        print(f"FAILED run check: {msg}", file=sys.stderr)

    env = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "threads": THREAD_ENV, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg(),
        "versions": record["versions"], "setup_s": [s["import_s"] + s["inputs_s"] for s in setups],
        "ops": [(r["op"], r["seconds"], r["traced"]) for r in results],
        "span_file": record.get("span_file"),
    }
    out_dir = os.path.join(ROOT, ".bench_run", "runs")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"env": env, "metrics": metrics, "results": results}, fh, indent=1)
    print(json.dumps({"env": env}))
    return {"correct": failed == 0 and not run_fails, "attempted": len(results),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: import the program, build inputs, run rounds.

    python3 bench/worker.py WORKLOAD setup
    python3 bench/worker.py WORKLOAD run SEED SECONDS
    python3 bench/worker.py WORKLOAD trace SEED SECONDS

Started by run.py with PYTHONPATH pointing at the checkout's src/. The
last line of standard output is a JSON record for run.py.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_run", "out")
TRACE_DIR = os.path.join(ROOT, ".bench_run", "trace")


def _setup(ops):
    """Import the program and build the workload's inputs.

    Returns (inputs, import seconds, input-building seconds). main() calls
    it before importing anything the interpreter has not loaded at start,
    so that moonbeam's import pays for every module it needs.
    """
    t0 = time.perf_counter()
    import moonbeam.scenario

    if any(op["kind"] == "cli" for op in ops):
        import moonbeam.cli  # noqa: F401
    t1 = time.perf_counter()
    inputs = [op["argv"] if op["kind"] == "cli"
              else moonbeam.scenario.scenario_from_mapping(op["config"]) for op in ops]
    return inputs, t1 - t0, time.perf_counter() - t1


def _operation(op, inp, out_dir):
    """A callable that runs one operation and returns its output as plain data.

    Program functions are looked up at call time, so that the span
    recorder's rebinding applies.
    """
    import contextlib
    import io

    from moonbeam import receiver, scenario

    if op["kind"] == "panel_power":
        def run(index):
            r = receiver.panel_power(inp)
            return {"efficiency": r.efficiency, "shift_y": r.shift_y, "peak_y": r.peak_y}
    elif op["kind"] == "calibrate":
        def run(index):
            return {"c_ext": scenario.resolve_cext(inp).dust.C_ext}
    else:
        from moonbeam import cli

        def run(index):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main([*inp, "--output-dir", os.path.join(out_dir, str(index))])
            if code != 0:
                raise RuntimeError(f"moonbeam {inp[0]} exited with code {code}")
            return {"files": [os.path.relpath(p, ROOT) for p in printed.getvalue().split()]}
    return run


def _round(ops, calls, order, results, recorder=None):
    """One whole round in the given order; returns its wall seconds."""
    t0 = time.perf_counter()
    for i in order:
        index = len(results)
        if recorder is not None:
            recorder.op = index
        t = time.perf_counter()
        try:
            output, error = calls[i](index), None
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t
        results.append({"op": ops[i]["name"], "index": index, "seconds": seconds,
                        "traced": recorder is not None, "output": output, "error": error})
    return time.perf_counter() - t0


def main():
    workload, mode = sys.argv[1], sys.argv[2]
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS  # constants only

    ops = WORKLOADS[workload]
    inputs, import_s, inputs_s = _setup(ops)

    import json
    import random
    import resource
    import shutil

    import moonbeam

    record = {"moonbeam_file": moonbeam.__file__, "import_s": import_s, "inputs_s": inputs_s}
    if mode == "setup":
        print(json.dumps(record))
        return
    seed, seconds = int(sys.argv[3]), float(sys.argv[4])
    out_dir = os.path.join(OUT_DIR, workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    calls = [_operation(op, inp, out_dir) for op, inp in zip(ops, inputs)]
    rng = random.Random(seed)
    results, untraced, traced = [], [], []
    recorder = None
    if mode == "trace":
        from tracer import Recorder

        recorder = Recorder()
    while True:
        order = rng.sample(range(len(ops)), len(ops))
        untraced.append(_round(ops, calls, order, results))
        if recorder is not None:
            uninstall = recorder.install()
            try:
                traced.append(_round(ops, calls, order, results, recorder))
            finally:
                uninstall()
        spent = sum(untraced) + sum(traced)
        if spent * (len(untraced) + 1) / len(untraced) > seconds:
            break
    record.update(
        results=results,
        measured_s=sum(untraced),
        traced_s=sum(traced),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "moonbeam": moonbeam.__version__,
                  "numpy": sys.modules["numpy"].__version__,
                  "scipy": sys.modules["scipy"].__version__},
    )
    if recorder is not None:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.jsonl")
        with open(path, "w") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span) + "\n")
        record["span_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(record))


if __name__ == "__main__":
    main()

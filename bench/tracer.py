"""Span recorder that traces the program from outside.

Each traced layer is a public function of the program. install() wraps
it and rebinds the wrapper in every loaded ``moonbeam`` module that
binds the original, because modules import names into their own
namespace: receiver and diffraction each hold their own
``field_at_points`` and ``build_aperture_grid``, sweeps and cli hold
``panel_power``, and calibrate_cext looks up
``moonbeam.receiver.panel_power`` at call time. The returned function
restores every binding.

Spans are kept in memory: name, start, end, parent span, the operation
they belong to, and counts taken from the call's arguments or result.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _field_counts(args, kwargs, result):
    n = int(result.size)
    return {"points": n, "pairs": n * int(args[0].x.size)}


def _write_counts(path_index):
    def counts(args, kwargs, result):
        path = os.fspath(args[path_index])
        size = os.path.getsize(path)
        if path.endswith(".pgm"):
            size += os.path.getsize(f"{path}.scale.txt")
        return {"bytes": size}

    return counts


#: (span name, module, function, counts) for every traced layer.
TARGETS = (
    ("diffraction.field_at_points", "moonbeam.diffraction", "field_at_points", _field_counts),
    ("receiver.panel_power", "moonbeam.receiver", "panel_power", None),
    ("source.build_aperture_grid", "moonbeam.source", "build_aperture_grid",
     lambda a, k, r: {"nodes": int(r.x.size)}),
    ("dust.calibrate_cext", "moonbeam.dust", "calibrate_cext", None),
    ("sweeps.run_sweep", "moonbeam.sweeps", "run_sweep", lambda a, k, r: {"cells": len(r.rows)}),
    ("diffraction.compute_irradiance_map", "moonbeam.diffraction", "compute_irradiance_map", None),
    ("mapio.write", "moonbeam.mapio", "write_table_csv", _write_counts(0)),
    ("mapio.write", "moonbeam.mapio", "write_map_csv", _write_counts(1)),
    ("mapio.write", "moonbeam.mapio", "write_map_pgm", _write_counts(1)),
    ("cli.main", "moonbeam.cli", "main", None),
)


class Recorder:
    """In-memory spans of the traced calls."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "op": self.op,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every target in every loaded moonbeam module; returns undo."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "moonbeam" or n.startswith("moonbeam."))]
        undo = []
        for name, mod_name, attr, counts in TARGETS:
            home = sys.modules.get(mod_name)
            if home is None:
                continue  # the workload never loads this layer
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))

        def uninstall():
            for mod, key, original in undo:
                setattr(mod, key, original)

        return uninstall


def layer_totals(spans):
    """Per span name: calls, busy and self seconds, and summed counts.

    Self time is a span's duration minus its direct children's; calls
    within one span run one after another, so children never overlap.
    ``forward_calls`` counts panel_power spans directly under a span.
    """
    child_time = {}
    forward = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            if s["name"] == "receiver.panel_power":
                forward[s["parent"]] = forward.get(s["parent"], 0) + 1
    points_under = {}
    for s in spans:
        if s["name"] == "diffraction.field_at_points" and s["parent"] is not None:
            points_under[s["parent"]] = points_under.get(s["parent"], 0) + s["points"]
    totals = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        busy = s["end"] - s["start"]
        t["calls"] += 1
        t["busy_s"] += busy
        t["self_s"] += busy - child_time.get(s["id"], 0.0)
        for key in ("pairs", "points", "nodes", "cells", "bytes"):
            if key in s:
                t[key] = t.get(key, 0) + s[key]
        if s["name"] == "receiver.panel_power":
            t["points"] = t.get("points", 0) + points_under.get(s["id"], 0)
        if s["name"] == "dust.calibrate_cext":
            t["forward_calls"] = t.get("forward_calls", 0) + forward.get(s["id"], 0)
    return totals

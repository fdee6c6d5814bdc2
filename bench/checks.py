"""Checks of every operation's output against the independent reference.

Each check_* function takes an operation description from workloads.py
and the output the worker recorded for it, and returns the list of
failed checks (empty when the output is correct). The tolerances are
fixed here, from what the method can promise, not from stored outputs.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os

import numpy as np

import reference
from workloads import C_EXT_175NM, PHYSICS

#: Panel efficiency and map centre against the reference. The residual
#: is the program's aperture grid at its 64-cell floor, whose discrete
#: power is 1.1e-4 above P0; measured gaps are 1.4e-4 to 4.0e-4.
POWER_RTOL = 5e-4
#: Dusty efficiency over the 10-50 km sweep. The reference takes the
#: column on the axis; the program integrates every ray, and the
#: vertical density gradient across the beam widens the gap with range
#: (1.3e-3 measured at 50 km).
SWEEP_RTOL = 1.5e-3
#: Half-width of the calibration's bisection bracket in C_ext (the
#: program stops at a relative width of 1e-3 and returns the midpoint).
CAL_ROOT_RTOL = 5e-4
#: The paper's upward beam shift at 50 km in dust [m], and its band.
SHIFT_50KM, SHIFT_BAND = 0.027, 0.2
#: Largest x-mirror asymmetry of a map, relative to its maximum.
MIRROR_RTOL = 1e-9

_LASER = {"w0": PHYSICS["laser.w0"], "r_a": PHYSICS["laser.r_a"],
          "wavelength": PHYSICS["laser.wavelength"]}
_PROFILE = {"A": PHYSICS["dust.A"], "H": PHYSICS["dust.H"], "h_floor": PHYSICS["dust.h_floor"]}


@functools.lru_cache(maxsize=None)
def _clear(D):
    return reference.clear_efficiency(D, L=PHYSICS["geometry.L"], W=PHYSICS["geometry.W"], **_LASER)


def _transmission(c_ext, D, h0, hp):
    return reference.dust_transmission(c_ext, reference.axis_column(D, h0, hp, **_PROFILE))


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check_panel_power(op, out):
    cfg, fails = op["config"], []
    D, h0, hp = cfg["geometry.D"], cfg["geometry.h0"], cfg["geometry.hp"]
    dusty = cfg.get("dust.enabled", False)
    want = _clear(D) * (_transmission(cfg["dust.cext"], D, h0, hp) if dusty else 1.0)
    if not _rel(out["efficiency"], want) <= POWER_RTOL:
        fails.append(f"efficiency {out['efficiency']!r} vs reference {want!r}")
    if not dusty and (out["shift_y"] != 0.0 or out["peak_y"] != 0.0):
        fails.append(f"clear-air shift_y {out['shift_y']!r}, peak_y {out['peak_y']!r} not 0")
    if dusty and not out["shift_y"] > 0.0:
        fails.append(f"dusty shift_y {out['shift_y']!r} not positive")
    return fails


def check_calibrate(op, out):
    cfg, c = op["config"], out["c_ext"]
    D, h0, hp = cfg["geometry.D"], cfg["geometry.h0"], cfg["geometry.hp"]
    target = cfg["dust.calibration.reference_power"] / cfg["laser.P0"]
    if not c > 0.0:
        return [f"C_ext {c!r} not positive"]
    t = _transmission(c, D, h0, hp)
    tol = POWER_RTOL + CAL_ROOT_RTOL * abs(math.log(t))
    eff = _clear(D) * t
    if not _rel(eff, target) <= tol:
        return [f"reference efficiency {eff!r} at C_ext {c!r} misses {target!r} by more than {tol:.2e}"]
    return []


def _files(out, suffix):
    return [f for f in out["files"] if f.endswith(suffix)]


def check_sweep(op, out, root):
    fails = []
    (manifest_path,) = _files(out, "_manifest.json")
    with open(os.path.join(root, manifest_path)) as fh:
        manifest = json.load(fh)
    start, stop, step = (float(v) for v in _flag(op["argv"], "--axis").split("=")[1].split(":"))
    axis = np.arange(start, stop + step / 2, step)
    if manifest.get("cells") != axis.size or manifest.get("failed") != 0:
        fails.append(f"manifest cells={manifest.get('cells')} failed={manifest.get('failed')}")
    (csv_path,) = _files(out, "_sweep.csv")
    with open(os.path.join(root, csv_path), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [float(r["D"]) for r in rows] != list(axis) or any(r["error"] for r in rows):
        return fails + [f"sweep rows {[(r['D'], r['error']) for r in rows]}"]
    shifts = []
    for r in rows:
        D, h0, hp = float(r["D"]), float(r["h0"]), float(r["hp"])
        want = _clear(D) * _transmission(C_EXT_175NM, D, h0, hp)
        if not _rel(float(r["efficiency"]), want) <= SWEEP_RTOL:
            fails.append(f"D={D:g}: efficiency {r['efficiency']} vs reference {want!r}")
        shifts.append(float(r["shift_y_m"]))
    if not (shifts[0] > 0.0 and all(b > a for a, b in zip(shifts, shifts[1:]))):
        fails.append(f"shift_y not positive and increasing with D: {shifts}")
    if axis[-1] == 50000.0 and not _rel(shifts[-1], SHIFT_50KM) <= SHIFT_BAND:
        fails.append(f"shift_y at 50 km {shifts[-1]!r} outside {SHIFT_50KM} m +- 20%")
    return fails


def check_map(op, out, root):
    fails = []
    D = float(_flag(op["argv"], "--distance"))
    (csv_path,) = _files(out, ".csv")
    table = np.loadtxt(os.path.join(root, csv_path), delimiter=",", skiprows=1)
    with open(os.path.join(root, csv_path)) as fh:
        xs = np.array([float(v) for v in fh.readline().split(",")[1:]])
    ys, values = table[:, 0], table[:, 1:]
    peak = values.max()
    if not (np.array_equal(xs, -xs[::-1]) and np.array_equal(ys, -ys[::-1])):
        fails.append("map axes are not mirror-symmetric about 0")
    asym = np.max(np.abs(values - values[:, ::-1])) / peak
    if not asym <= MIRROR_RTOL:
        fails.append(f"x-mirror asymmetry {asym!r} of the map maximum")
    i, j = int(np.argmin(np.abs(xs))), int(np.argmin(np.abs(ys)))
    want = reference.centre_irradiance(D, P0=PHYSICS["laser.P0"], **_LASER) * _transmission(
        C_EXT_175NM, D, 2.0, 2.0)
    if xs[i] != 0.0 or ys[j] != 0.0 or not _rel(values[j, i], want) <= POWER_RTOL:
        fails.append(f"centre irradiance {values[j, i]!r} at ({xs[i]}, {ys[j]}) vs reference {want!r}")
    (pgm_path,) = _files(out, ".pgm")
    with open(os.path.join(root, pgm_path), "rb") as fh:
        data = fh.read()
    head = data.split(b"\n", 3)
    if len(head) != 4 or head[0] != b"P5" or head[2] != b"65535":
        return fails + [f"PGM header {head[:3]!r}"]
    nx, ny = (int(v) for v in head[1].split())
    counts = np.frombuffer(head[3], dtype=">u2")
    if (ny, nx) != values.shape or counts.size * 2 != len(head[3]) or counts.size != nx * ny:
        fails.append(f"PGM size {nx}x{ny} with {len(head[3])} bytes, map {values.shape}")
    elif counts.max() != 65535:
        fails.append(f"PGM full-scale count {counts.max()} != 65535")
    return fails


def check(op, out, root):
    """Failed checks of one operation's output."""
    if op["kind"] == "panel_power":
        return check_panel_power(op, out)
    if op["kind"] == "calibrate":
        return check_calibrate(op, out)
    if op["argv"][0] == "sweep":
        return check_sweep(op, out, root)
    return check_map(op, out, root)

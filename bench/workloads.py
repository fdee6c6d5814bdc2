"""The benchmark's workloads: fixed inputs, described without the program.

Each workload is a list of operations that make up one round. The
worker builds the program's inputs from these descriptions, and the
reference checks read the same descriptions, so both sides see the same
physics. Nothing here imports the program.
"""

from __future__ import annotations

#: Extinction cross-section of the paper's 175 nm dust [m^2]: the
#: program's own calibration to 910 W at 5 km with h0 = 12 m, hp = 2 m.
#: Given explicitly so that near-range and far-study do not pay for a
#: calibration, and so that calibrate has a target to reproduce.
C_EXT_175NM = 5.257065813393193e-14

#: The paper's laser, panel and dust-profile parameters, passed to the
#: program explicitly so that the reference and the program share them.
PHYSICS = {
    "laser.P0": 1000.0,
    "laser.wavelength": 1.064e-6,
    "laser.w0": 0.05,
    "laser.r_a": 0.05,
    "geometry.L": 0.5,
    "geometry.W": 0.5,
    "dust.d_p": 175e-9,
    "dust.m_p": 1.733,
    "dust.A": 4.166e8,
    "dust.H": 8.68,
    "dust.h_floor": 1e-3,
    "numerics.workers": 1,
}


def _scenario(D, h0=2.0, hp=2.0, **extra):
    return {**PHYSICS, "geometry.D": D, "geometry.h0": h0, "geometry.hp": hp, **extra}


def _dust(c_ext):
    return {"dust.enabled": True, "dust.cext_source": "explicit", "dust.cext": c_ext}


def _cli(*args):
    sets = []
    for key, value in PHYSICS.items():
        sets += ["--set", f"{key}={value!r}"]
    return [*args, "--dust", "--cext", repr(C_EXT_175NM), *sets]


# Operation kinds: "panel_power" runs receiver.panel_power on a scenario
# mapping; "cli" runs moonbeam.cli.main on an argument list (with
# --output-dir appended per operation); "calibrate" runs
# scenario.resolve_cext on a scenario whose C_ext source is calibrated.
WORKLOADS = {
    # The sampling rule raises the aperture to 168-304 cells per axis:
    # ~1.1-1.4e8 pairs per operation in a few large kernel calls.
    "near-range": [
        {"name": "clear-2km", "kind": "panel_power", "config": _scenario(2000.0)},
        {"name": "dust-5km-h2", "kind": "panel_power",
         "config": _scenario(5000.0, **_dust(C_EXT_175NM))},
        {"name": "dust-5km-h12", "kind": "panel_power",
         "config": _scenario(5000.0, h0=12.0, **_dust(C_EXT_175NM))},
    ],
    # The aperture sits at its 64-cell floor: many small kernel calls,
    # a grid per cell, the shift window and line peak, and map writes.
    "far-study": [
        {"name": "sweep-10-50km", "kind": "cli",
         "argv": _cli("sweep", "--kind", "distance", "--axis", "D=10000:50000:5000")},
        {"name": "map-20km", "kind": "cli", "argv": _cli("map", "--distance", "20000")},
        {"name": "map-50km", "kind": "cli", "argv": _cli("map", "--distance", "50000")},
    ],
    # Bisection over power-only forward calls; no shift loop.
    "calibrate": [
        {"name": "cal-175nm-910W", "kind": "calibrate",
         "config": _scenario(5000.0, h0=12.0, **{
             "dust.enabled": True, "dust.cext_source": "calibrated",
             "dust.calibration.reference_power": 910.0})},
        {"name": "cal-250nm-190W", "kind": "calibrate",
         "config": _scenario(5000.0, **{
             "dust.d_p": 250e-9, "dust.enabled": True, "dust.cext_source": "calibrated",
             "dust.calibration.reference_power": 190.0})},
    ],
}

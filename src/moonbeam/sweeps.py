"""Parameter-sweep drivers with convergence control and parallelism.

Each sweep kind varies one or two scenario parameters over a default
grid (overridable), evaluates the panel power at every grid point, and
returns rows keyed by the grid values. Cells are independent jobs:
a worker pool may execute them in any order, but rows are assembled by
grid index and every cell computes identical values in any process, so
the serialized output is byte-identical for any worker count.

A failing cell records its error in its row without aborting the rest
of the sweep; only a sweep whose every cell failed raises.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .diffraction import compute_irradiance_map, required_aperture_resolution
from .dust import mie_extinction_cross_section
from .errors import BeamError, ConvergenceError, NumericalError, ValidationError
from .geometry import PathPoint, ScenarioGeometry
from .phase import cumulative_phase
from .receiver import RESULT_COLUMNS, beam_shift, panel_power, result_row
from .scenario import CEXT_SOURCE_HELP, MAX_DISTANCE, Scenario, resolve_cext

SWEEP_KINDS = (
    "distance",
    "height_map",
    "panel_height",
    "particle_size",
    "irradiance_maps",
    "distance_comparison",
)

#: Sweep kinds whose physics is meaningless without a dust
#: cross-section source; they refuse to default silently.
_KINDS_NEEDING_CEXT = ("particle_size", "distance_comparison")


def default_axes(kind: str) -> dict:
    """Default parameter grids per sweep kind."""
    distances = np.arange(1, 51, dtype=float) * 1000.0
    heights = np.arange(4, 25, dtype=float) * 0.5  # 2.0 .. 12.0 m
    if kind == "distance":
        return {"D": distances}
    if kind == "height_map":
        return {"h0": heights, "D": distances}
    if kind == "panel_height":
        return {"hp": heights}
    if kind == "particle_size":
        return {"d_p": np.arange(0, 13, dtype=float) * 25e-9}
    if kind == "irradiance_maps":
        return {"D": np.array([5000.0, 20000.0, 50000.0])}
    if kind == "distance_comparison":
        return {"D": distances}
    raise ValidationError(f"unknown sweep kind {kind!r}; use one of {', '.join(SWEEP_KINDS)}")


@dataclass(frozen=True)
class SweepSpec:
    """A sweep request: kind, base scenario, and parameter axes."""

    kind: str
    base: Scenario
    axes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SWEEP_KINDS:
            raise ValidationError(
                f"unknown sweep kind {self.kind!r}; use one of {', '.join(SWEEP_KINDS)}"
            )
        resolved = dict(default_axes(self.kind))
        for name, values in self.axes.items():
            if name not in resolved:
                raise ValidationError(
                    f"sweep kind {self.kind!r} has no axis {name!r}; "
                    f"its axes are {', '.join(resolved)}"
                )
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValidationError(f"axis {name!r} must be a non-empty 1D range")
            resolved[name] = arr
        for name, arr in resolved.items():
            if name == "D" and (np.any(arr <= 0) or np.any(arr > MAX_DISTANCE)):
                raise ValidationError(
                    f"distance axis must lie in (0, {MAX_DISTANCE}] m"
                )
            if name in ("h0", "hp") and np.any(arr <= 0):
                raise ValidationError(f"height axis {name!r} must be positive")
            if name == "d_p" and np.any(arr < 0):
                raise ValidationError("particle-size axis must be >= 0")
        object.__setattr__(self, "axes", resolved)
        if self.kind in _KINDS_NEEDING_CEXT and self.base.cext_source is None:
            raise ValidationError(
                f"sweep kind {self.kind!r} needs dust.cext_source set to one of: "
                f"{CEXT_SOURCE_HELP}; it does not default"
            )


@dataclass(frozen=True)
class SweepResult:
    """Rows keyed by grid values plus run provenance."""

    kind: str
    columns: tuple
    rows: list
    maps: list
    provenance: dict


def center_to_center_power(scenario: Scenario) -> float:
    """Single-ray received power between the two centers [W].

    Pure extinction along the center ray, P0 * exp(-2 * Im(Phi)):
    no diffraction, the no-spreading baseline of distance comparisons.
    """
    geom = scenario.geometry
    phi = cumulative_phase(
        PathPoint.source(0.0, 0.0),
        PathPoint.destination(0.0, 0.0, geom.D),
        geom,
        scenario.active_dust(),
        scenario.laser.wavelength,
    )
    return scenario.laser.P0 * math.exp(-2.0 * phi.im)


@dataclass(frozen=True)
class ConvergedNumerics:
    """Outcome of aperture-resolution refinement."""

    aperture_resolution: int
    power: float
    final_rel: float
    history: list


def converge(scenario: Scenario, target_rel: float) -> ConvergedNumerics:
    """Refine the aperture resolution until panel power stabilizes.

    Starts from the sampling rule, doubles the resolution until the
    power changes by less than target_rel between refinements, and
    returns the finer resolution of the final pair (re-running with it
    reproduces the power bit-identically).
    """
    if not 0.0 < target_rel <= 0.05:
        raise ValidationError(f"target_rel must lie in (0, 0.05], got {target_rel}")
    geom = scenario.geometry
    res = scenario.numerics.aperture_resolution or required_aperture_resolution(
        scenario.laser, geom.D, math.hypot(geom.L / 2.0, geom.W / 2.0)
    )

    def power_at(resolution: int) -> float:
        trial = scenario.with_updates(
            numerics=replace(scenario.numerics, aperture_resolution=resolution)
        )
        return panel_power(trial, with_shift=False).power

    history = [(res, power_at(res))]
    for _ in range(scenario.numerics.max_refinements):
        res *= 2
        history.append((res, power_at(res)))
        prev, cur = history[-2][1], history[-1][1]
        scale = max(abs(prev), abs(cur))
        rel = abs(cur - prev) / scale if scale > 0.0 else 0.0
        if rel < target_rel:
            return ConvergedNumerics(
                aperture_resolution=res, power=cur, final_rel=rel, history=history
            )
    raise ConvergenceError(
        f"aperture refinement hit the ceiling after "
        f"{scenario.numerics.max_refinements} doublings without reaching "
        f"{target_rel:g}",
        history=history,
    )


def _axis_skeleton(values: dict) -> dict:
    row = dict(values)
    row["error"] = None
    return row


def _cell_scenario(spec: SweepSpec, values: dict) -> Scenario:
    """Scenario for one grid cell of a resolved sweep."""
    base = spec.base
    geom = base.geometry
    geo_updates = {k: v for k, v in values.items() if k in ("D", "h0", "hp")}
    scen = base
    if geo_updates:
        scen = scen.with_updates(geometry=replace(geom, **geo_updates))
    if "d_p" in values:
        d_p = values["d_p"]
        if d_p == 0.0:
            # Zero diameter means no particles at all.
            return scen.with_updates(dust_enabled=False)
        mode = base.cext_source
        wavelength = base.laser.wavelength
        if mode == "mie":
            c = mie_extinction_cross_section(d_p, wavelength, base.dust.m_p)
        elif mode == "calibrated":
            # Preserve the calibrated magnitude; scale across sizes with
            # the physical Mie ratio.
            ref = mie_extinction_cross_section(base.dust.d_p, wavelength, base.dust.m_p)
            at = mie_extinction_cross_section(d_p, wavelength, base.dust.m_p)
            c = base.dust.C_ext * at / ref
        else:  # explicit: the user's number is held constant
            c = base.dust.C_ext
        scen = scen.with_updates(
            dust=replace(base.dust, d_p=d_p, C_ext=c), dust_enabled=True
        )
    return scen


def _evaluate_cell(payload):
    """Worker body: one sweep cell to one row dict."""
    kind, values, scenario, build_error = payload
    row = _axis_skeleton(values)
    if build_error is not None:
        row["error"] = build_error
        return row
    try:
        if kind == "distance_comparison":
            dusty = scenario
            free = scenario.with_updates(dust_enabled=False)
            p0 = scenario.laser.P0
            p_center = center_to_center_power(dusty)
            p_free = panel_power(free, with_shift=False).power
            p_dust = panel_power(dusty, with_shift=False).power
            row.update(
                power_center_W=p_center,
                power_free_W=p_free,
                power_dust_W=p_dust,
                efficiency_center=p_center / p0,
                efficiency_free=p_free / p0,
                efficiency_dust=p_dust / p0,
            )
        else:
            result = panel_power(scenario)
            row.update(result_row(scenario, result))
    except BeamError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _sweep_columns(kind: str) -> tuple:
    if kind == "distance_comparison":
        return (
            "D",
            "power_center_W",
            "power_free_W",
            "power_dust_W",
            "efficiency_center",
            "efficiency_free",
            "efficiency_dust",
            "error",
        )
    if kind == "irradiance_maps":
        return ("D", "max_irradiance_W_m2", "shift_y_m", "error")
    return RESULT_COLUMNS + ("error",)


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate a sweep over its grid; see the module docstring."""
    t_start = time.monotonic()
    base = spec.base
    if spec.kind in _KINDS_NEEDING_CEXT:
        # These kinds always carry a dusty branch; the cross-section
        # must be resolved even when the base scenario has dust off.
        base = base.with_updates(dust_enabled=True)
    base = resolve_cext(base)
    spec = SweepSpec(kind=spec.kind, base=base, axes=spec.axes)
    n_workers = workers if workers is not None else base.numerics.workers

    axis_names = list(spec.axes)
    grids = [spec.axes[name] for name in axis_names]
    cells = []
    for idx in np.ndindex(*(len(g) for g in grids)):
        values = {name: float(grids[i][idx[i]]) for i, name in enumerate(axis_names)}
        try:
            scen = _cell_scenario(spec, values)
            cells.append((spec.kind, values, scen, None))
        except BeamError as exc:
            cells.append((spec.kind, values, None, f"{type(exc).__name__}: {exc}"))

    maps = []
    if spec.kind == "irradiance_maps":
        rows = []
        for _, values, scen, err in cells:
            row = _axis_skeleton(values)
            if err is None:
                try:
                    imap = compute_irradiance_map(scen)
                    maps.append(imap)
                    row["max_irradiance_W_m2"] = float(imap.values.max())
                    row["shift_y_m"] = beam_shift(imap)
                except BeamError as exc:
                    row["error"] = f"{type(exc).__name__}: {exc}"
            else:
                row["error"] = err
            rows.append(row)
    elif n_workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_evaluate_cell, cells))
    else:
        rows = [_evaluate_cell(cell) for cell in cells]

    failures = [row for row in rows if row.get("error")]
    if rows and len(failures) == len(rows):
        raise NumericalError(
            f"all {len(rows)} sweep cells failed; first error: {failures[0]['error']}"
        )

    provenance = {
        "kind": spec.kind,
        "version": __version__,
        "config_hash": base.config_hash(),
        "cells": len(rows),
        "failed": len(failures),
        "workers": n_workers,
        "wall_time_s": time.monotonic() - t_start,
    }
    return SweepResult(
        kind=spec.kind,
        columns=_sweep_columns(spec.kind),
        rows=rows,
        maps=maps,
        provenance=provenance,
    )

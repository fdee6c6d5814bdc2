"""Parameter-sweep drivers with convergence control and parallelism.

Each sweep kind varies one or two scenario parameters over a default
grid (overridable) and evaluates every grid point through one cell
evaluator, into rows keyed by the grid values (and, for
irradiance_maps, one map per cell). Cells are independent jobs: with
numerics.workers > 1 a pool may execute them in any order, but results
are assembled by grid index and every cell computes identical values
in any process, so the serialized output is byte-identical for any
worker count.

A failing cell records its error in its row without aborting the rest
of the sweep; only a sweep whose every cell failed raises. converge
doubles the aperture resolution through the panel quadrature's
refinement loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .diffraction import compute_irradiance_map, window_aperture_resolution
from .dust import mie_extinction_cross_section
from .errors import BeamError, NumericalError, ValidationError
from .geometry import ray_heights
from .phase import column_density
from .receiver import RESULT_COLUMNS, _refine, beam_shift, panel_power, result_row
from .scenario import CEXT_SOURCE_HELP, MAX_DISTANCE, MAX_PARTICLE_DIAMETER, Scenario, resolve_cext

SWEEP_KINDS = (
    "distance",
    "height_map",
    "panel_height",
    "particle_size",
    "irradiance_maps",
    "distance_comparison",
)

#: CSV columns of the kinds whose rows are not RESULT_COLUMNS.
_COLUMNS = {
    "distance_comparison": ("D", "power_center_W", "power_free_W", "power_dust_W",
                            "efficiency_center", "efficiency_free", "efficiency_dust", "error"),
    "irradiance_maps": ("D", "max_irradiance_W_m2", "shift_y_m", "error"),
}

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
            if name == "d_p" and np.any(arr > MAX_PARTICLE_DIAMETER):
                raise ValidationError(f"particle-size axis exceeds {MAX_PARTICLE_DIAMETER} m")
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

    Pure extinction along the center ray, P0 * exp(-2 * C_ext * column):
    no diffraction, the no-spreading baseline of distance comparisons.
    """
    geom, dust = scenario.geometry, scenario.active_dust()
    h_src, h_dst = ray_heights(geom, 0.0, 0.0, geom.D)
    im = 0.0 if dust is None else dust.C_ext * column_density(dust, h_src, h_dst, geom.D)
    return scenario.laser.P0 * math.exp(-2.0 * im)


@dataclass(frozen=True)
class ConvergedNumerics:
    """Outcome of aperture-resolution refinement."""

    aperture_resolution: int
    power: float
    final_rel: float
    history: list


def converge(scenario: Scenario, target_rel: float) -> ConvergedNumerics:
    """Refine the aperture resolution until panel power stabilizes.

    Starts from the configured resolution or the sampling rule, doubles
    it (at most numerics.max_refinements times) until the power changes
    by no more than target_rel between refinements, and returns the
    finer resolution of the final pair (re-running with it reproduces
    the power bit-identically). The doublings run through the panel
    quadrature's refinement loop, receiver._refine.
    """
    if not 0.0 < target_rel <= 0.05:
        raise ValidationError(f"target_rel must lie in (0, 0.05], got {target_rel}")
    geom = scenario.geometry
    start = window_aperture_resolution(scenario, geom.L / 2.0, geom.W / 2.0)

    def power_at(resolution: int) -> float:
        trial = scenario.with_updates(
            numerics=replace(scenario.numerics, aperture_resolution=resolution)
        )
        return panel_power(trial, with_shift=False).power

    schedule = [start * 2**i for i in range(scenario.numerics.max_refinements + 1)]
    history, rel = _refine(power_at, schedule, target_rel, what="aperture refinement")
    res, power = history[-1]
    return ConvergedNumerics(aperture_resolution=res, power=power, final_rel=rel, history=history)


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
    """Worker body: one sweep cell to its row dict and its map (None
    unless the kind is irradiance_maps)."""
    spec, values = payload
    row = dict(values, error=None)
    imap = None
    try:
        scenario = _cell_scenario(spec, values)
        if spec.kind == "distance_comparison":
            free = scenario.with_updates(dust_enabled=False)
            p0 = scenario.laser.P0
            p_center = center_to_center_power(scenario)
            p_free = panel_power(free, with_shift=False).power
            p_dust = panel_power(scenario, with_shift=False).power
            row.update(
                power_center_W=p_center,
                power_free_W=p_free,
                power_dust_W=p_dust,
                efficiency_center=p_center / p0,
                efficiency_free=p_free / p0,
                efficiency_dust=p_dust / p0,
            )
        elif spec.kind == "irradiance_maps":
            imap = compute_irradiance_map(scenario)
            row["max_irradiance_W_m2"] = float(imap.values.max())
            row["shift_y_m"] = beam_shift(imap)
        else:
            result = panel_power(scenario)
            row.update(result_row(scenario, result))
    except BeamError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row, imap


def ProcessPoolExecutor(max_workers: int):  # noqa: N802 - stands in for the class
    """concurrent.futures.ProcessPoolExecutor(max_workers), imported here, where
    a pool starts: the import loads multiprocessing, which a serial run never needs."""
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(max_workers=max_workers)


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
    cells = [
        (spec, {name: float(grids[i][idx[i]]) for i, name in enumerate(axis_names)})
        for idx in np.ndindex(*(len(g) for g in grids))
    ]
    if n_workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(n_workers, len(cells))) as pool:
            evaluated = list(pool.map(_evaluate_cell, cells))
    else:
        evaluated = [_evaluate_cell(cell) for cell in cells]
    rows = [row for row, _ in evaluated]
    maps = [imap for _, imap in evaluated if imap is not None]

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
        columns=_COLUMNS.get(spec.kind, RESULT_COLUMNS + ("error",)),
        rows=rows,
        maps=maps,
        provenance=provenance,
    )

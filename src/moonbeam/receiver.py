"""Received power, efficiency, and beam-center-shift metrics.

Panel power is a tensor Gauss-Legendre quadrature of the irradiance
over the panel rectangle, its order raised along _ORDERS from the
panel's fringe count until two successive values agree to
``numerics.target_rel`` (0.1% by default). Quadrature nodes are
evaluated directly through the diffraction engine (on their tensor
grid), never interpolated from a map, so steep beam edges cannot leak
interpolation error into the power.

The beam-center shift is reported with two metrics: the canonical
shift_y is the irradiance-weighted centroid over an analysis window of
diffraction.SHIFT_WINDOW_FACTOR (3) panel half-extents, and peak_y is
the location of maximum irradiance along the vertical center line,
both from diffraction.irradiance_on_grid. Both are positive when the
beam center moves upward; without dust both are 0 by symmetry and never
computed. The center line is scanned at a fixed rate per fringe (see _line_peak).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# field_at_points is not called here but stays bound, because the
# benchmark's recorder test (bench/test_reference.py) reads it here.
from .diffraction import (  # noqa: F401
    SHIFT_WINDOW_FACTOR,
    field_at_points,
    irradiance_on_grid,
    window_aperture_resolution,
)
from .errors import ConvergenceError, DegenerateMapError
from .geometry import ray_heights
from .source import build_aperture_grid

#: Gauss-Legendre orders of every quadrature refinement: 16 raised 1.5x,
#: rounded up to even (as sound a check as doubling, at half the cost).
_ORDERS = (16, 24, 36, 54, 82, 124, 186, 280, 420, 630, 946)
_SHIFT_ATOL = 1e-5  # [m]
_LINE_SAMPLES_PER_FRINGE = 4  # of _line_peak's strided scan


@dataclass(frozen=True)
class PanelResult:
    """Outcome of one received-power evaluation.

    Attributes
    ----------
    power : float
        Received power on the panel [W].
    efficiency : float
        power / P0.
    shift_y : float
        Irradiance-weighted centroid offset along y in the analysis
        window [m]; exactly 0 for dust-free runs (symmetric problem).
    peak_y : float
        Location of the irradiance maximum on the vertical center
        line [m].
    convergence : float
        Relative power change at the final quadrature refinement.
    """

    power: float
    efficiency: float
    shift_y: float
    peak_y: float
    convergence: float


#: Column order of the canonical one-row CSV serialization.
RESULT_COLUMNS = (
    "D",
    "h0",
    "hp",
    "d_p",
    "C_ext",
    "power_W",
    "efficiency",
    "shift_y_m",
    "peak_y_m",
    "converged_rel_change",
)


def result_row(scenario, result: PanelResult) -> dict:
    """PanelResult as a dict in RESULT_COLUMNS order."""
    dusty = scenario.dust_enabled
    return {
        "D": scenario.geometry.D,
        "h0": scenario.geometry.h0,
        "hp": scenario.geometry.hp,
        "d_p": scenario.dust.d_p if dusty else 0.0,
        "C_ext": scenario.dust.C_ext if dusty else 0.0,
        "power_W": result.power,
        "efficiency": result.efficiency,
        "shift_y_m": result.shift_y,
        "peak_y_m": result.peak_y,
        "converged_rel_change": result.convergence,
    }


@functools.lru_cache(maxsize=16)
def _leggauss(order: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], once per order."""
    t, w = np.polynomial.legendre.leggauss(order)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _gauss_nodes(half_x: float, half_y: float, order: int):
    """Tensor Gauss-Legendre nodes over a centered rectangle.

    The irradiance is exactly even in x (mirror-symmetric aperture,
    heights independent of x), so only the x >= 0 half of the grid is
    returned, with doubled x-weights. Requires an even order. Returns
    the x axis (order/2 nodes), the y axis (order nodes) and their
    (order/2, order) weight matrix.
    """
    if order % 2:
        raise ValueError(f"quadrature order must be even, got {order}")
    t, w = _leggauss(order)
    half = order // 2
    xs = t[half:] * half_x
    wx = 2.0 * w[half:] * half_x
    ys = t * half_y
    wy = w * half_y
    return xs, ys, np.outer(wx, wy)


def _window_integrals(grid, scenario, half_x, half_y, order):
    """(integral of I, integral of y*I) over the window."""
    xs, ys, wg = _gauss_nodes(half_x, half_y, order)
    irr = irradiance_on_grid(scenario, grid, xs, ys)
    return float(np.sum(wg * irr)), float(np.sum(wg * irr * ys))


def _line_peak(grid, scenario, half_y: float) -> float:
    """Location of maximum irradiance on the x = 0 line, refined.

    Scans every s-th of the line's 601 samples, s for _LINE_SAMPLES_PER_FRINGE
    per fringe lambda*D/(2*r_a), then all within s - 1 of each scanned
    maximum above half the top, and refines the first best one on 81 points
    and a parabola. field_on_grid's bits do not depend on a call's other
    points, so this is the full scan's peak unless the stride misses a lobe.
    """

    def irr_at(ys: np.ndarray) -> np.ndarray:
        return irradiance_on_grid(scenario, grid, [0.0], ys)[0]

    ys = np.linspace(-half_y, half_y, 601)
    fringe = scenario.laser.wavelength * scenario.geometry.D / (2.0 * scenario.laser.r_a)
    s = max(1, int(fringe / (_LINE_SAMPLES_PER_FRINGE * (ys[1] - ys[0]))))
    coarse = np.append(np.arange(0, ys.size - 1, s), ys.size - 1)
    vals = np.full(ys.size, -np.inf)
    vals[coarse] = c = irr_at(ys[coarse])
    edge = np.concatenate([[-np.inf], c, [-np.inf]])
    tops = coarse[(c >= edge[:-2]) & (c >= edge[2:]) & (c >= 0.5 * np.max(c))]
    near = np.setdiff1d((tops[:, None] + np.arange(1 - s, s)).clip(0, ys.size - 1), coarse)
    if near.size:
        vals[near] = irr_at(ys[near])
    idx = int(np.argmax(vals))
    lo = ys[max(idx - 1, 0)]
    hi = ys[min(idx + 1, ys.size - 1)]
    fine = np.linspace(lo, hi, 81)
    fvals = irr_at(fine)
    j = int(np.argmax(fvals))
    if 0 < j < fine.size - 1:
        # Parabolic refinement through the best three samples.
        y0, y1, y2 = fvals[j - 1], fvals[j], fvals[j + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0.0:
            return float(fine[j] + 0.5 * (y0 - y2) / denom * (fine[1] - fine[0]))
    return float(fine[j])


def _orders(scenario, half_x: float, half_y: float, floor: int = _ORDERS[0]):
    """The tail of _ORDERS from its first order at or above ``floor`` and
    the window's near-field fringe count 2*r_a*max(L, W)/(lambda*D), or its
    last order alone: two orders below that count can agree by chance."""
    laser = scenario.laser
    fringes = 4.0 * laser.r_a * max(half_x, half_y) / (laser.wavelength * scenario.geometry.D)
    return _ORDERS[min(int(np.searchsorted(_ORDERS, max(floor, fringes))), len(_ORDERS) - 1):]


def _refine(evaluate, schedule, rtol: float, atol: float = 0.0,
            what: str = "panel power quadrature"):
    """Walk a schedule of settings until two successive values agree.

    Values a, b agree when |a - b| <= max(rtol * max(|a|, |b|), atol);
    NaN never agrees. Returns the history [(setting, value), ...], whose
    last entry is the accepted value, and the relative change
    |a - b| / max(|a|, |b|) (0 for a = b = 0) at that step. Raises
    ConvergenceError with the history once the schedule is spent.
    """
    history = []
    for setting in schedule:
        value = evaluate(setting)
        history.append((setting, value))
        if len(history) > 1:
            prev = history[-2][1]
            change, scale = abs(value - prev), max(abs(value), abs(prev))
            if change <= max(rtol * scale, atol):
                return history, change / scale if scale > 0.0 else 0.0
    raise ConvergenceError(
        f"{what} did not stabilize to {rtol:g} by {setting}; last iterates {history[-2:]}",
        history=history,
    )


def _panel_grid(scenario):
    """The aperture grid that the panel power is summed over."""
    geom = scenario.geometry
    res = window_aperture_resolution(scenario, geom.L / 2.0, geom.W / 2.0)
    return build_aperture_grid(scenario.laser, res)


def _panel_power(scenario, grid, order: int | None = None):
    """Panel power on a grid as (_refine history, change), for panel_power
    and calibrate_cext: refined along _ORDERS to numerics.target_rel, or
    evaluated once at a held order."""
    half_l, half_w = scenario.geometry.L / 2.0, scenario.geometry.W / 2.0

    def power(n: int) -> float:
        return _window_integrals(grid, scenario, half_l, half_w, n)[0]

    if order is not None:
        return [(order, power(order))], 0.0
    return _refine(power, _orders(scenario, half_l, half_w), scenario.numerics.target_rel)


def panel_power(scenario, with_shift: bool = True) -> PanelResult:
    """Received power and shift metrics for one scenario.

    Raises the quadrature order along _ORDERS, from the panel's fringe
    count, until two successive powers agree to ``numerics.target_rel``;
    with dust on, the shift window is then refined the same way, from
    its own fringe count or the power's final order, until the centroid
    stabilizes (to target_rel relative or _SHIFT_ATOL). Raises
    ConvergenceError with the history once _ORDERS is spent. The
    aperture resolution comes from the scenario numerics or the sampling
    rule (applied separately to the panel and the wider shift window,
    whose corners sit at different transverse offsets).

    with_shift False skips the shift metrics (0 in the result); the
    dust-free shift is identically zero by symmetry and never computed.
    With dust and the shift on, a shift window whose lowest edge meets
    the ground raises TerrainError before any grid is built.
    """
    geom = scenario.geometry
    laser = scenario.laser
    rtol = scenario.numerics.target_rel
    win_x, win_y = SHIFT_WINDOW_FACTOR * geom.L / 2.0, SHIFT_WINDOW_FACTOR * geom.W / 2.0
    if scenario.dust_enabled and with_shift:
        # _line_peak reaches the window's lowest point y = -win_y: a window
        # that meets the ground is refused before any grid or sum.
        ray_heights(geom, 0.0, -win_y, geom.D)
    history, rel = _panel_power(scenario, _panel_grid(scenario))
    order, power = history[-1]

    shift = peak = 0.0
    if scenario.dust_enabled and with_shift:
        win_grid = build_aperture_grid(laser, window_aperture_resolution(scenario, win_x, win_y))

        def centroid(order: int) -> float:
            wtot, wmom = _window_integrals(win_grid, scenario, win_x, win_y, order)
            return wmom / wtot if wtot > 0.0 else float("nan")

        orders = _orders(scenario, win_x, win_y, order)
        shift = _refine(centroid, orders, rtol, _SHIFT_ATOL, "beam-shift quadrature")[0][-1][1]
        peak = _line_peak(win_grid, scenario, win_y)

    return PanelResult(
        power=power,
        efficiency=power / laser.P0,
        shift_y=shift,
        peak_y=peak,
        convergence=rel,
    )


def beam_shift(imap) -> float:
    """Irradiance-weighted centroid offset along y of a map [m].

    The centroid runs over the whole map; compute_irradiance_map's
    default extent is the shift analysis window of panel_power.
    """
    total = float(np.sum(imap.values))
    if total <= 0.0:
        raise DegenerateMapError("no irradiance in the map")
    return float(np.sum(imap.values * imap.ys[:, None]) / total)

"""Truncated-Gaussian laser aperture and its quadrature discretization.

The emitted field is a Gaussian of waist w0 cut by a hard circular
aperture of radius r_a. The normalization constant zeta is chosen so
the power passing the aperture equals P0 exactly for any r_a/w0 ratio.

The aperture integral is discretized on a tensor-product midpoint grid
masked by the disk; cells straddling the rim are weighted by their
overlap area with the disk (counted on 32 x 32 subcells) and their
node is moved to the overlap centroid, which keeps every node strictly
inside the aperture. The full interior cells keep their lattice
positions, recorded per axis as a Gaussian amplitude and one run of
interior rows per column, which the separable kernel sums by prefix sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResolutionError, ValidationError

#: Subcells per axis when resolving rim cells; 32*32 subcells bound the
#: relative rim-area error well below the grid's own midpoint error.
_RIM_SUBDIV = 32

#: Relative tolerance on the discrete-power check of a fresh grid.
_POWER_RTOL = 5e-3

#: Most cells per axis built: eight float64 arrays of res^2 cells, 1 GiB.
_MAX_RESOLUTION = 4096

#: Most grid nodes held across calls: 40 MiB at about 40 B per node.
_HELD_NODES = 2**20

#: Built grids by (LaserSource, resolution), least recently used first.
_HELD: dict = {}


@dataclass(frozen=True)
class LaserSource:
    """Laser aperture description.

    Parameters
    ----------
    P0 : float
        Total emitted power [W].
    w0 : float
        Gaussian waist radius at 1/e^2 intensity [m].
    r_a : float
        Aperture radius [m].
    wavelength : float
        Vacuum wavelength [m].
    eta : float
        Wave impedance of the medium [ohm].

    The truncation normalization ``zeta`` is derived.
    """

    P0: float
    w0: float
    r_a: float
    wavelength: float
    eta: float = 377.0
    zeta: float = field(init=False)

    def __post_init__(self):
        if not self.P0 > 0:  # "not > 0" refuses NaN as well
            raise DomainError(f"emitted power must be positive, got {self.P0}")
        if not self.w0 > 0:
            raise DomainError(f"waist radius must be positive, got {self.w0}")
        if not self.r_a > 0:
            raise DomainError(f"aperture radius must be positive, got {self.r_a}")
        if not self.wavelength > 0:
            raise DomainError(f"wavelength must be positive, got {self.wavelength}")
        if not self.eta > 0:
            raise DomainError(f"wave impedance must be positive, got {self.eta}")
        zeta = 1.0 / math.sqrt(-math.expm1(-2.0 * self.r_a**2 / self.w0**2))
        object.__setattr__(self, "zeta", zeta)

    @property
    def peak_amplitude(self) -> float:
        """On-axis field amplitude [V/m]."""
        return self.zeta * math.sqrt(4.0 * self.P0 * self.eta / (math.pi * self.w0**2))

    @property
    def rayleigh_range(self) -> float:
        """pi * w0^2 / wavelength [m]."""
        return math.pi * self.w0**2 / self.wavelength


def aperture_field(ls: LaserSource, x0, y0):
    """Field amplitude at aperture coordinates (x0, y0) [V/m].

    Gaussian profile times the hard window: zero at and outside the
    aperture radius. Accepts scalars or arrays.
    """
    x = np.asarray(x0, dtype=float)
    y = np.asarray(y0, dtype=float)
    r2 = x * x + y * y
    e = ls.peak_amplitude * np.exp(-r2 / ls.w0**2) * (r2 < ls.r_a**2)
    if np.ndim(x0) == 0 and np.ndim(y0) == 0:
        return float(e)
    return e


@dataclass(frozen=True)
class ApertureGrid:
    """Quadrature nodes over the aperture disk.

    Attributes
    ----------
    x, y : ndarray
        Node coordinates [m]; every node lies strictly inside the disk.
    weight : ndarray
        Cell areas [m^2]; rim cells carry their disk-overlap area.
    e0 : ndarray
        Field amplitude at each node [V/m].
    resolution : int
        Cells per axis of the underlying tensor grid.
    axis : ndarray or None
        Cell-centre coordinates [m] of the lattice rows and columns
        that hold full interior cells, for grids from
        build_aperture_grid; None for node sets built by hand.
    amp, spans : ndarray or None
        Cell (i, j), centred at (axis[i], axis[j]), is a full interior
        cell when spans[0, j] <= i < spans[1, j]; its weight * e0 [V m]
        is amp[i] * amp[j] to rounding.
    lattice_nodes : int
        The first lattice_nodes nodes are those interior cells; the
        remaining nodes are the rim cells.
    """

    x: np.ndarray
    y: np.ndarray
    weight: np.ndarray
    e0: np.ndarray
    resolution: int
    axis: np.ndarray | None = None
    amp: np.ndarray | None = None
    spans: np.ndarray | None = None
    lattice_nodes: int = 0

    def __post_init__(self):
        _read_only(self.x, self.y, self.weight, self.e0, self.axis, self.amp, self.spans)

    #: np.unique(y, return_inverse=True), computed once per grid.
    _distinct_y = functools.cached_property(
        lambda self: _read_only(*np.unique(self.y, return_inverse=True)))

    @functools.cached_property
    def _separable(self):
        """field_on_grid's constants: per axis the lattice axis, then the rim's distinct values;
        the rim's x columns, weight*e0 and y-group starts in y order; sum|weight*e0|."""
        rim = slice(self.lattice_nodes, None)
        rim_x, rim_ix = np.unique(self.x[rim], return_inverse=True)
        rim_y, rim_iy = np.unique(self.y[rim], return_inverse=True)
        by_y = np.argsort(rim_iy, kind="stable")
        return _read_only(
            np.concatenate([self.axis, rim_x]), np.concatenate([self.axis, rim_y]),
            rim_ix[by_y], (self.weight[rim] * self.e0[rim])[by_y],
            np.searchsorted(rim_iy[by_y], np.arange(rim_y.size)),
            float(np.sum(np.abs(self.weight * self.e0))),
        )

    def discrete_power(self, eta: float) -> float:
        """Power carried by the discretized field [W]."""
        return float(np.sum(self.weight * self.e0**2) / (2.0 * eta))


def _read_only(*arrays):
    """The arguments, with every ndarray among them set read-only."""
    for arr in arrays:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return arrays


def build_aperture_grid(ls: LaserSource, resolution: int) -> ApertureGrid:
    """Discretize the aperture disk at the given cells-per-axis count.

    Interior cells are midpoint cells with full area; rim cells get
    their overlap area with the disk, counted on a (rim, sub, sub) mask
    of subcells built from per-axis squares, and a node at the overlap
    centroid. Raises ResolutionError above _MAX_RESOLUTION cells per axis, or
    if the discrete power misses P0 by over 0.5% (too coarse for the waist).

    Each (ls, resolution) is built once, then held within _HELD_NODES nodes,
    least recently used out first; refusals and larger grids are not held.
    """
    if resolution < 8:
        raise ValidationError(f"aperture resolution must be >= 8, got {resolution}")
    res = int(resolution)
    if res > _MAX_RESOLUTION:
        raise ResolutionError(f"aperture resolution {res} exceeds the {_MAX_RESOLUTION}-cell "
                              f"limit; its build would need {64 * res * res / 2**30:.3g} GiB")
    key = (ls, res)
    if key in _HELD:
        _HELD[key] = _HELD.pop(key)  # now the most recently used
        return _HELD[key]
    ra = ls.r_a
    cell = 2.0 * ra / res
    centers = (np.arange(res) + 0.5) * cell - ra
    cx, cy = (a.ravel() for a in np.meshgrid(centers, centers, indexing="ij"))

    # Classify cells by their nearest/farthest corner distance to the rim.
    half = 0.5 * cell
    ax, ay = np.abs(cx), np.abs(cy)
    far2 = (ax + half) ** 2 + (ay + half) ** 2
    near2 = np.maximum(ax - half, 0.0) ** 2 + np.maximum(ay - half, 0.0) ** 2
    inside = far2 < ra**2
    outside = near2 >= ra**2
    rim = ~inside & ~outside

    sub = _RIM_SUBDIV
    off = ((np.arange(sub) + 0.5) / sub - 0.5) * cell
    # Subcell (a, b) of rim cell n is centred at (sx[n, a], sy[n, b]).
    sx = cx[rim][:, None] + off[None, :]
    sy = cy[rim][:, None] + off[None, :]
    hit = (sx * sx)[:, :, None] + (sy * sy)[:, None, :] < ra**2
    per_x = hit.sum(axis=2)
    counts = per_x.sum(axis=1)
    keep = counts > 0
    # Overlap centroid: mean of covered subcell centers, summed per
    # axis. The disk is convex, so the centroid lies strictly inside it.
    x = np.concatenate([cx[inside], (sx * per_x).sum(axis=1)[keep] / counts[keep]])
    y = np.concatenate([cy[inside], (sy * hit.sum(axis=1)).sum(axis=1)[keep] / counts[keep]])
    n_inside = int(np.count_nonzero(inside))
    w = np.concatenate([np.full(n_inside, cell * cell), counts[keep] * (cell / sub) ** 2])
    e0 = np.asarray(aperture_field(ls, x, y))

    # Interior cells per axis, trimmed to the rows and columns that hold
    # any (far2 is symmetric in x and y). far2 is monotone in |x| under
    # rounding, so the interior rows of each column form one run.
    mask = inside.reshape(res, res)
    used = np.flatnonzero(mask.any(axis=1))
    keep = slice(used[0], used[-1] + 1)
    mask, axis = mask[keep, keep], centers[keep]
    lo = np.argmax(mask, axis=0)
    grid = ApertureGrid(
        x=x, y=y, weight=w, e0=e0, resolution=res, axis=axis,
        amp=cell * math.sqrt(ls.peak_amplitude) * np.exp(-axis * axis / ls.w0**2),
        spans=np.stack([lo, lo + np.count_nonzero(mask, axis=0)]),
        lattice_nodes=n_inside,
    )

    power = grid.discrete_power(ls.eta)
    if abs(power - ls.P0) > _POWER_RTOL * ls.P0:
        raise ResolutionError(
            f"aperture resolution {res} reproduces only {power:.6g} W of the "
            f"emitted {ls.P0:.6g} W; increase the resolution"
        )
    if grid.x.size <= _HELD_NODES:
        _HELD[key] = grid
        while sum(g.x.size for g in _HELD.values()) > _HELD_NODES:
            del _HELD[next(iter(_HELD))]
    return grid

"""Truncated-Gaussian laser aperture and its quadrature discretization.

The emitted field is a Gaussian of waist w0 cut by a hard circular
aperture of radius r_a. The normalization constant zeta is chosen so
the power passing the aperture equals P0 exactly for any r_a/w0 ratio.

The aperture integral is discretized on a tensor-product midpoint grid
masked by the disk; cells straddling the rim are weighted by their
exact overlap area with the disk (computed by subdivision) and their
node is moved to the overlap centroid, which keeps every node strictly
inside the aperture. The full interior cells keep their lattice
positions, and the grid records them as a matrix on the cell-centre
axis, which the separable propagation kernel sums by matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResolutionError, ValidationError

#: Subcells per axis when resolving rim cells; 32*32 subcells bound the
#: relative rim-area error well below the grid's own midpoint error.
_RIM_SUBDIV = 32

#: Relative tolerance on the discrete-power check of a fresh grid.
_POWER_RTOL = 5e-3


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
    zeta: float = field(default=0.0)  # derived in __post_init__

    def __post_init__(self):
        if self.P0 <= 0:
            raise DomainError(f"emitted power must be positive, got {self.P0}")
        if self.w0 <= 0:
            raise DomainError(f"waist radius must be positive, got {self.w0}")
        if self.r_a <= 0:
            raise DomainError(f"aperture radius must be positive, got {self.r_a}")
        if self.wavelength <= 0:
            raise DomainError(f"wavelength must be positive, got {self.wavelength}")
        if self.eta <= 0:
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
    lattice : ndarray or None
        weight * e0 [V m] of the full interior cells, with cell (i, j)
        centred at (axis[i], axis[j]); zero at rim and outside cells.
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
    lattice: np.ndarray | None = None
    lattice_nodes: int = 0

    def __post_init__(self):
        for arr in (self.x, self.y, self.weight, self.e0, self.axis, self.lattice):
            if arr is not None:
                arr.setflags(write=False)

    def discrete_power(self, eta: float) -> float:
        """Power carried by the discretized field [W]."""
        return float(np.sum(self.weight * self.e0**2) / (2.0 * eta))


def build_aperture_grid(ls: LaserSource, resolution: int) -> ApertureGrid:
    """Discretize the aperture disk at the given cells-per-axis count.

    Interior cells are midpoint cells with full area; rim cells get
    their exact overlap area with the disk and a node at the overlap
    centroid. Raises if the discrete power misses P0 by more than
    0.5%, which flags a resolution too coarse for the waist.
    """
    if resolution < 8:
        raise ValidationError(f"aperture resolution must be >= 8, got {resolution}")
    res = int(resolution)
    ra = ls.r_a
    cell = 2.0 * ra / res
    centers = (np.arange(res) + 0.5) * cell - ra
    cx, cy = np.meshgrid(centers, centers, indexing="ij")
    cx = cx.ravel()
    cy = cy.ravel()

    # Classify cells by their nearest/farthest corner distance to the rim.
    half = 0.5 * cell
    ax, ay = np.abs(cx), np.abs(cy)
    far2 = (ax + half) ** 2 + (ay + half) ** 2
    near2 = np.maximum(ax - half, 0.0) ** 2 + np.maximum(ay - half, 0.0) ** 2
    inside = far2 < ra**2
    outside = near2 >= ra**2
    rim = ~inside & ~outside

    xs = [cx[inside]]
    ys = [cy[inside]]
    ws = [np.full(int(np.count_nonzero(inside)), cell * cell)]

    if np.any(rim):
        rx, ry = cx[rim], cy[rim]
        sub = _RIM_SUBDIV
        off = ((np.arange(sub) + 0.5) / sub - 0.5) * cell
        ox, oy = np.meshgrid(off, off, indexing="ij")
        sx = rx[:, None] + ox.ravel()[None, :]
        sy = ry[:, None] + oy.ravel()[None, :]
        hit = (sx * sx + sy * sy) < ra**2
        counts = hit.sum(axis=1)
        keep = counts > 0
        sub_area = (cell / sub) ** 2
        weights = counts[keep] * sub_area
        # Overlap centroid: mean of covered subcell centers. The disk is
        # convex, so the centroid lies strictly inside it.
        cxs = np.where(hit, sx, 0.0).sum(axis=1)[keep] / counts[keep]
        cys = np.where(hit, sy, 0.0).sum(axis=1)[keep] / counts[keep]
        xs.append(cxs)
        ys.append(cys)
        ws.append(weights)

    x = np.concatenate(xs)
    y = np.concatenate(ys)
    w = np.concatenate(ws)
    e0 = np.asarray(aperture_field(ls, x, y))

    # Interior cells in lattice form, trimmed to the rows and columns
    # that hold any (the disk is symmetric, so both axes keep the same
    # index range): every lattice row then carries a node.
    n_inside = int(np.count_nonzero(inside))
    lattice = np.zeros(res * res)
    lattice[inside] = w[:n_inside] * e0[:n_inside]
    used = np.flatnonzero(inside.reshape(res, res).any(axis=1))
    keep = slice(used[0], used[-1] + 1)
    grid = ApertureGrid(
        x=x, y=y, weight=w, e0=e0, resolution=res,
        axis=centers[keep], lattice=lattice.reshape(res, res)[keep, keep],
        lattice_nodes=n_inside,
    )

    power = grid.discrete_power(ls.eta)
    if abs(power - ls.P0) > _POWER_RTOL * ls.P0:
        raise ResolutionError(
            f"aperture resolution {res} reproduces only {power:.6g} W of the "
            f"emitted {ls.P0:.6g} W; increase the resolution"
        )
    return grid

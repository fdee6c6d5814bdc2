"""Propagation of the aperture field to destination points.

Every aperture node contributes a spherical wavelet 1/(lambda*R) *
E0 * exp(-j*Phi) * dA; the destination field is the plain sum (no
obliquity factor, consistent with the sub-degree tilts involved).
Phi is complex: its imaginary part (extinction) attenuates the
amplitude, its real part carries vacuum propagation plus the excess
from the dust's real index. The common factor exp(-j*k*z) carries no
transverse information and is dropped.

Two evaluations of that sum:

- :func:`field_at_points`, the exact direct sum for scattered points.
  The vacuum phase enters as k*(R - z), computed by the
  cancellation-free identity R - z = rho^2/(R + z), and each point's
  node sum runs in one fixed-order numpy reduction.
- :func:`field_on_grid`, for a tensor grid of points on one plane.
  The interior aperture nodes lie on a lattice, and a ray's dust
  column depends only on its two endpoint heights, that is on (y0, y).
  With the Fresnel expansion of R about z and its first-order
  correction (1/R, the quartic phase, the column's rho^2/2z), the
  lattice sum factorizes into a few real and complex matrix products.
  The rim nodes factorize the same way as a diagonal node set,
  Kx * diag(a) * Ky^T, with the transcendental factors evaluated once
  per distinct rim coordinate. A bound on the dropped second-order
  terms over all nodes is checked first, and the whole grid takes the
  direct sum when it exceeds _FRESNEL_REMAINDER_MAX; a direct sum of
  more than _DIRECT_PAIRS_MAX pairs is refused instead.

Both are deterministic: the reduction order depends only on the array
shapes, never on the worker or BLAS thread count.

All irradiance on the panel plane (panel power, shift window, line peak
and maps) comes from :func:`irradiance_on_grid`. SHIFT_WINDOW_FACTOR
sizes both the shift window and the default map.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dust import DustModel
from .errors import NumericalError, ResolutionError, ValidationError
from .geometry import PathPoint, ScenarioGeometry, ray_heights
from .phase import mean_density
from .source import ApertureGrid, LaserSource, build_aperture_grid

#: Sampling-rule floor [cells/axis]: keeps the smooth Gaussian envelope
#: well resolved even where the oscillation bound alone is loose.
MIN_APERTURE_RESOLUTION = 64

#: Beam-shift analysis window and default map extent, in panel half-extents.
SHIFT_WINDOW_FACTOR = 3.0

#: Pairwise-product budget per vectorized block. 2e6 doubles keep each
#: temporary array at 16 MB, small enough that the allocator recycles
#: them instead of round-tripping pages through the kernel.
_BLOCK_ELEMENTS = 2_000_000

#: Largest bound on the separable sum's dropped second-order terms,
#: relative to each pair's magnitude, for which field_on_grid uses it.
#: The bound is a worst case at the grid corner; the summed error is far
#: smaller, because the dropped terms turn with the pair phase and are
#: largest where the beam is dark. For bounds up to 1e-5 (200 m to 1 km,
#: half-widths 0.3 to 0.75 m) the field error measured 1e-3 to 3e-3 of
#: the bound times max |E|: 4e-10 over the shift window at 1 km, where
#: the bound is 7.3e-7. Shorter ranges and wider grids take the direct
#: sum.
_FRESNEL_REMAINDER_MAX = 1e-6

#: Largest direct sum, in node x point pairs, that field_on_grid runs
#: when its grid is beyond the separable bound: about a minute at the
#: direct kernel's 1e7 to 2e7 pairs/s. Larger sums are refused.
_DIRECT_PAIRS_MAX = 1e9

#: Rounding allowance, relative to the summed pair magnitudes, when the
#: separable field is checked against the direct sum. Phases of up to
#: ~1e4 rad and sums of ~1e5 terms leave rounding near 1e-12; a fault in
#: the separable sum shows at order one.
_ROUNDING_RTOL = 1e-9

_log = logging.getLogger("moonbeam")


def required_aperture_resolution(ls: LaserSource, z_min: float, rho_max: float) -> int:
    """Cells per axis needed by the oscillation-aware sampling rule.

    The integrand's transverse phase gradient is bounded by
    k*(r_a + rho_max)/R with R >= z_min, so a node spacing of
    (pi/4) * z_min / (k*(r_a + rho_max)) keeps every sampled
    oscillation below an eighth of a period.
    """
    if z_min <= 0:
        raise ValidationError(f"destination plane distance must be positive, got {z_min}")
    k = 2.0 * math.pi / ls.wavelength
    delta = (math.pi / 4.0) * z_min / (k * (ls.r_a + max(rho_max, 0.0)))
    return max(MIN_APERTURE_RESOLUTION, int(math.ceil(2.0 * ls.r_a / delta)))


def window_aperture_resolution(scenario, half_x: float, half_y: float) -> int:
    """Aperture cells per axis for a destination window at the panel plane.

    numerics.aperture_resolution when configured, else the sampling rule
    for the window's corner at hypot(half_x, half_y) off axis.
    """
    return scenario.numerics.aperture_resolution or required_aperture_resolution(
        scenario.laser, scenario.geometry.D, math.hypot(half_x, half_y)
    )


def field_at_points(
    grid: ApertureGrid,
    geom: ScenarioGeometry,
    dust: DustModel | None,
    wavelength: float,
    xs,
    ys,
    zs,
) -> np.ndarray:
    """Complex field at destination points (xs, ys, zs) [V/m].

    Arrays broadcast to a common 1D shape; the return matches it. All
    aperture nodes contribute to every point; work is blocked over
    destination points to bound memory, never over nodes, so each
    point's node sum runs in one fixed-order reduction.

    With dust, a ray's mean particle density depends only on its two
    endpoint heights, so :func:`~moonbeam.phase.mean_density` is
    evaluated once on the table of distinct destination heights by
    distinct source-node heights and gathered per ray.
    """
    shape = np.broadcast_shapes(np.shape(xs), np.shape(ys), np.shape(zs))
    x, y, z = (
        arr.ravel()
        for arr in np.broadcast_arrays(
            np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), np.asarray(zs, dtype=float)
        )
    )
    if np.any(z <= 0.0):
        raise ValidationError("destination points must lie at z > 0")

    k = 2.0 * math.pi / wavelength
    if dust is not None:
        h_src, h_dst = ray_heights(geom, grid.y, y, z)
        hs, src_row = np.unique(h_src, return_inverse=True)
        hd, dst_row = np.unique(h_dst, return_inverse=True)
        nbar_table = mean_density(dust, hd[:, None], hs[None, :])
        kappa = k * dust.polarizability_volume

    src_amp = grid.weight * grid.e0 / wavelength
    n_nodes = grid.x.size
    out = np.empty(x.size, dtype=complex)
    block = max(1, _BLOCK_ELEMENTS // max(n_nodes, 1))
    for start in range(0, x.size, block):
        sl = slice(start, min(start + block, x.size))
        dx = x[sl, None] - grid.x[None, :]
        dy = y[sl, None] - grid.y[None, :]
        zz = z[sl, None]
        rho2 = dx * dx + dy * dy
        R = np.sqrt(rho2 + zz * zz)
        phase = k * (rho2 / (R + zz))
        amp = src_amp[None, :] / R
        if dust is not None:
            cn = np.take(nbar_table[dst_row[sl]], src_row, axis=1) * R
            phase = phase + kappa * cn
            if dust.C_ext > 0.0:
                amp = amp * np.exp(-dust.C_ext * cn)
        out[sl] = np.sum(amp * np.cos(phase), axis=1) - 1j * np.sum(
            amp * np.sin(phase), axis=1
        )
    if not np.all(np.isfinite(out.view(float))):
        raise NumericalError("field accumulation produced non-finite values")
    return out.reshape(shape)


def field_at_point(
    grid: ApertureGrid,
    dst: PathPoint,
    geom: ScenarioGeometry,
    dust: DustModel | None,
    wavelength: float,
) -> complex:
    """Complex field at a single destination path point [V/m]."""
    return complex(field_at_points(grid, geom, dust, wavelength, dst.x, dst.y, dst.z))


def _fresnel_remainder(k: float, z: float, rho2: float, col: float) -> float:
    """Bound on a pair's relative error in the separable sum.

    rho2 bounds the squared transverse offset rho^2 of the pairs and col
    bounds |C_ext + j*k*alpha| * mean density [1/m] (0 without dust).
    The exact factors z/R, exp(-j*k*(R - z - rho^2/2z)) and
    exp(-c*nbar*(R - z)) are taken as 1 + a1, 1 + a2, 1 + a3 with
    a1 = -rho^2/2z^2, a2 = j*k*rho^4/8z^3, a3 = -c*nbar*rho^2/2z, and
    the product as 1 + a1 + a2 + a3. The three factors err by at most
    e1 = 3rho^4/8z^4, e2 = |a2|^2/2 + k*rho^6/16z^5 and
    e3 = |a3|^2/2 + col*rho^4/8z^3 (alternating series for rho < z;
    Re(c) >= 0), and the dropped products by the pairwise and triple
    products of |a_i|. The bound grows with rho2, so the corner of the
    grid bounds every pair.
    """
    a1 = rho2 / (2.0 * z * z)
    a2 = k * rho2 * rho2 / (8.0 * z**3)
    a3 = col * rho2 / (2.0 * z)
    e1 = 3.0 * rho2 * rho2 / (8.0 * z**4)
    e2 = 0.5 * a2 * a2 + k * rho2**3 / (16.0 * z**5)
    e3 = 0.5 * a3 * a3 + col * rho2 * rho2 / (8.0 * z**3)
    return e1 + e2 + (1.0 + a2) * e3 + a1 * a2 + a1 * a3 + a2 * a3 + a1 * a2 * a3


def field_on_grid(
    grid: ApertureGrid,
    geom: ScenarioGeometry,
    dust: DustModel | None,
    wavelength: float,
    xs,
    ys,
    z: float,
) -> np.ndarray:
    """Complex field on the tensor grid xs x ys at the plane z [V/m].

    Returns E with E[i, j] the field at (xs[i], ys[j], z): the sum of
    :func:`field_at_points` on those points. For a grid from
    build_aperture_grid, the lattice nodes and, as a diagonal node set,
    the rim nodes are summed separably (see the module docstring), and
    one grid point is checked against field_at_points. When the bound
    on the separable sum's dropped terms exceeds _FRESNEL_REMAINDER_MAX,
    or the grid has no lattice, every node is summed by field_at_points
    and a warning on the ``moonbeam`` logger gives the pair count; a
    direct sum of more than _DIRECT_PAIRS_MAX pairs is refused with a
    ResolutionError before it starts.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    z = float(z)
    if z <= 0.0:
        raise ValidationError("destination points must lie at z > 0")
    k = 2.0 * math.pi / wavelength

    bound = math.inf
    if grid.lattice is not None:
        # Source coordinates per axis: the lattice axis, then the
        # distinct x (or y) values of the rim nodes. Every factor below
        # is evaluated once per coordinate; rim node n lies at column
        # rim_ix[n] of the x factors and rim_iy[n] of the y factors.
        u = grid.axis
        rim = slice(grid.lattice_nodes, None)
        rim_x, rim_ix = np.unique(grid.x[rim], return_inverse=True)
        rim_y, rim_iy = np.unique(grid.y[rim], return_inverse=True)
        cx = np.concatenate([u, rim_x])
        cy = np.concatenate([u, rim_y])
        rho2 = (float(np.max(np.abs(xs))) + float(np.max(np.abs(cx)))) ** 2 + (
            float(np.max(np.abs(ys))) + float(np.max(np.abs(cy)))
        ) ** 2
        col = 0.0
        if dust is not None:
            h_src, h_dst = ray_heights(geom, cy, ys, z)
            nbar = mean_density(dust, h_dst[:, None], h_src[None, :])
            c = complex(dust.C_ext, k * dust.polarizability_volume)
            col = abs(c) * float(np.max(nbar))
        bound = _fresnel_remainder(k, z, rho2, col)

    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    if bound > _FRESNEL_REMAINDER_MAX:
        pairs = float(grid.x.size) * xg.size
        if pairs > _DIRECT_PAIRS_MAX:
            raise ResolutionError(
                f"direct diffraction sum of {pairs:.3g} pairs at z = {z:g} m exceeds the "
                f"limit of {_DIRECT_PAIRS_MAX:.3g} pairs (separable remainder bound "
                f"{bound:.3g} > {_FRESNEL_REMAINDER_MAX:g})"
            )
        _log.warning(
            "direct diffraction sum of %d nodes x %d points = %.3g pairs at z = %g m "
            "(separable remainder bound %.3g > %g)",
            grid.x.size, xg.size, pairs, z, bound, _FRESNEL_REMAINDER_MAX,
        )
        return field_at_points(grid, geom, dust, wavelength, xg, yg, z)

    # Per pair, a/z * Kx(dx) * Ky(dy) * Dust(y, y0) * (1 + beta*rho^2 +
    # gamma*rho^4), with beta = -1/2z^2 - c*nbar/2z and gamma = jk/8z^3.
    # Expanding rho^2 = dx^2 + dy^2 groups it by dx^0, dx^2 and dx^4.
    dx2 = (xs[:, None] - cx[None, :]) ** 2
    dy2 = (ys[:, None] - cy[None, :]) ** 2
    q = k / (2.0 * z)
    kx = np.exp(-1j * q * dx2)
    beta = -0.5 / (z * z)
    if dust is None:
        ky = np.exp(-1j * q * dy2)
    else:
        cn = c * nbar
        ky = np.exp(-1j * q * dy2 - z * cn)
        beta = beta - cn / (2.0 * z)
    gamma = 1j * k / (8.0 * z**3)
    left = (kx, kx * dx2, kx * (dx2 * dx2))
    right = (
        ky * (1.0 + beta * dy2 + gamma * (dy2 * dy2)),
        ky * (beta + 2.0 * gamma * dy2),
        ky * gamma,
    )
    # The contractions run in einsum's loops, whose summation order is
    # fixed by the shapes; OpenBLAS matmul changes it with its thread
    # count. The lattice is real, so its product is a real one.
    n = u.size
    lat = np.concatenate([f[:, :n] for f in left])
    la = np.einsum("ik,kj->ij", np.concatenate([lat.real, lat.imag]), grid.lattice / wavelength)
    la = la[: lat.shape[0]] + 1j * la[lat.shape[0]:]
    # The rim nodes' left columns, scaled by their amplitudes, are summed
    # per distinct y (in a fixed order), where they meet one right column.
    a = grid.weight[rim] * grid.e0[rim] / wavelength
    by_y = np.argsort(rim_iy, kind="stable")
    first = np.searchsorted(rim_iy[by_y], np.arange(rim_y.size))
    rim_left = [
        np.add.reduceat(np.take(f[:, n:], rim_ix[by_y], axis=1) * a[by_y], first, axis=1)
        for f in left
    ]
    lat_left = np.split(la, 3)
    e = np.einsum(
        "ik,jk->ij",
        np.hstack([m for p in range(3) for m in (lat_left[p], rim_left[p])]),
        np.hstack(right),
    ) / z
    if not np.all(np.isfinite(e.view(float))):
        raise NumericalError("field accumulation produced non-finite values")

    # The exact sum at the grid point farthest off axis, where the bound
    # is attained, checks the bound: no pair errs by more than bound
    # times its magnitude, and no pair's magnitude exceeds weight*e0/(lambda*z).
    i, j = int(np.argmax(np.abs(xs))), int(np.argmax(np.abs(ys)))
    exact = field_at_points(grid, geom, dust, wavelength, xs[i], ys[j], z)
    scale = float(np.sum(np.abs(grid.weight * grid.e0))) / (wavelength * z)
    if not abs(e[i, j] - exact) <= (bound + _ROUNDING_RTOL) * scale:
        raise NumericalError(
            f"separable field at ({xs[i]:.6g}, {ys[j]:.6g}, {z:.6g}) m differs from the "
            f"direct sum by {abs(e[i, j] - exact):.3g} V/m, above its bound"
        )
    return e


def irradiance_at_point(field_value, eta: float):
    """Irradiance |E|^2 / (2*eta) [W/m^2]."""
    e = np.asarray(field_value)
    val = (e.real**2 + e.imag**2) / (2.0 * eta)
    if e.ndim == 0:
        return float(val)
    return val


def irradiance_on_grid(scenario, grid: ApertureGrid, xs, ys) -> np.ndarray:
    """Irradiance on the tensor grid xs x ys at the panel plane [W/m^2].

    :func:`field_on_grid` at z = D, with the scenario's active dust and
    laser wavelength; element [i, j] is at (xs[i], ys[j]).
    """
    geom = scenario.geometry
    e = field_on_grid(grid, geom, scenario.active_dust(), scenario.laser.wavelength, xs, ys, geom.D)
    return irradiance_at_point(e, scenario.laser.eta)


def free_space_gaussian_irradiance(ls: LaserSource, x, y, z):
    """Analytic untruncated-Gaussian irradiance at (x, y, z) [W/m^2].

    2*P0/(pi*w(z)^2) * exp(-2*r^2/w(z)^2) with
    w(z) = w0*sqrt(1 + (z/z_R)^2). The independent oracle for the
    dust-free engine.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise ValidationError("free-space oracle is defined for z >= 0")
    w = gaussian_beam_radius(ls, z_arr)
    r2 = np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2
    val = (2.0 * ls.P0 / (math.pi * w**2)) * np.exp(-2.0 * r2 / w**2)
    if np.ndim(x) == 0 and np.ndim(y) == 0 and np.ndim(z) == 0:
        return float(val)
    return val


def gaussian_beam_radius(ls: LaserSource, z):
    """1/e^2 beam radius w(z) of the untruncated Gaussian [m]."""
    zr = ls.rayleigh_range
    return ls.w0 * np.sqrt(1.0 + (np.asarray(z, dtype=float) / zr) ** 2)


@dataclass(frozen=True)
class IrradianceMap:
    """Irradiance sampled on a uniform rectangular destination grid.

    values[j, i] is the irradiance at (xs[i], ys[j]) in the tilted
    frame at the plane z = distance.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    extent: tuple[float, float]
    distance: float
    meta: dict

    def __post_init__(self):
        for arr in (self.xs, self.ys, self.values):
            arr.setflags(write=False)

    def __setstate__(self, state):
        # Unpickling (a map from a sweep worker) bypasses __init__, and
        # unpickled arrays come back writeable.
        self.__dict__.update(state)
        self.__post_init__()


def _symmetric_axis(half_width: float, count: int) -> np.ndarray:
    # (i - (count-1)/2) * step mirrors exactly in floating point, which
    # the x-parity property relies on.
    step = 2.0 * half_width / (count - 1)
    return (np.arange(count) - (count - 1) / 2.0) * step


def compute_irradiance_map(
    scenario,
    extent: float | None = None,
    resolution: int = 129,
) -> IrradianceMap:
    """Irradiance over a uniform grid on the panel plane.

    Parameters
    ----------
    scenario : Scenario
        Validated scenario; dust applies when enabled (with its stored
        cross-section).
    extent : float, optional
        Half-width of the sampled square [m]; by default the beam-shift
        analysis window, SHIFT_WINDOW_FACTOR panel half-extents per axis.
    resolution : int
        Grid points per axis, at least 32.
    """
    geom = scenario.geometry
    if extent is None:
        ex, ey = SHIFT_WINDOW_FACTOR * geom.L / 2.0, SHIFT_WINDOW_FACTOR * geom.W / 2.0
    else:
        ex = ey = float(extent)
    if ex <= 0:
        raise ValidationError(f"map extent must be positive, got {extent}")
    if ex < geom.L / 2 or ey < geom.W / 2:
        raise ValidationError(
            f"map extent {extent} m does not cover the {geom.L} x {geom.W} m panel"
        )
    if resolution < 32:
        raise ValidationError(f"map resolution must be >= 32 per axis, got {resolution}")

    ap_res = window_aperture_resolution(scenario, ex, ey)
    xs = _symmetric_axis(ex, resolution)
    ys = _symmetric_axis(ey, resolution)
    grid = build_aperture_grid(scenario.laser, ap_res)
    # C order, so that sums over the map (beam_shift) run row by row.
    values = np.ascontiguousarray(irradiance_on_grid(scenario, grid, xs, ys).T)

    meta = {
        "aperture_resolution": ap_res,
        "distance": geom.D,
        "panel_L": geom.L,
        "panel_W": geom.W,
        "dust_enabled": scenario.dust_enabled,
        "d_p": scenario.dust.d_p if scenario.dust_enabled else 0.0,
        "C_ext": scenario.dust.C_ext if scenario.dust_enabled else 0.0,
        "config_hash": scenario.config_hash(),
    }
    return IrradianceMap(
        xs=xs,
        ys=ys,
        values=values,
        extent=(ex, ey),
        distance=geom.D,
        meta=meta,
    )

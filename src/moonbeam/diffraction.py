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
  A pair's kernel exp(-j*k*(R - z) - c*nbar*R)/R splits exactly into
  an x factor, a y factor (which carries the column and 1/R) and a
  cross factor G of dx^2 alone near 1; with G to first order in dx^2,
  the sum factorizes. The lattice amplitude is an outer product
  a_i*a_j over one run of rows per column, so each column's x sum is a
  difference of prefix sums. The rim nodes are a diagonal node set,
  Kx * diag(a) * Ky^T, with the transcendental factors evaluated once
  per distinct rim coordinate. A bound on the dropped terms of G over
  all nodes is checked first, and a grid on which it exceeds
  _FRESNEL_REMAINDER_MAX is refused at once. Destination rows are
  built and contracted in blocks of _ROW_BLOCK_ELEMENTS.

Inside a :class:`holding` block, both keep the factors of each call
that do not depend on C_ext, so that a calibration's probes at one point
set pay only for the extinction exp(-C_ext*nbar*R) on top of them.

Both are deterministic, whatever the worker, BLAS thread, row-block
count or holding: the direct sum reduces in numpy's fixed order, the
prefix sums run in sequence (cumsum), and the y products are BLAS dots
of at most _DOT_SLICE terms, each on one OpenBLAS thread, added in
order.

All irradiance on the panel plane (panel power, shift window, line peak
and maps) comes from :func:`irradiance_on_grid`. SHIFT_WINDOW_FACTOR
sizes both the shift window and the default map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

#: Complex elements (512 KiB) per block of field_on_grid's destination
#: rows. The block's real temporaries scale with it: 2**15 ran the line,
#: window, map and panel shapes as fast as 2**16, at a lower peak memory.
_ROW_BLOCK_ELEMENTS = 2**15

#: Longest BLAS dot: OpenBLAS splits ?dot across threads from n = 10000.
_DOT_SLICE = 4096

#: Largest bound on the separable sum's dropped cross terms, relative
#: to each pair's magnitude; field_on_grid refuses grids beyond it. The
#: bound is a worst case at the grid corner; the summed error is far
#: smaller, because the dropped terms turn with the pair phase and are
#: largest where the beam is dark. Measured against the direct sum, as a
#: fraction of the on-axis |E|: 1.3e-14 over the 5 km dust shift window,
#: 1.0e-10 at 1 km, 2.1e-10 at 800 m, and 2.9e-10 over the 220 m clear
#: panel.
_FRESNEL_REMAINDER_MAX = 1e-6

#: Rounding allowance, relative to the summed pair magnitudes, when the
#: separable field is checked against the direct sum. Phases of up to
#: ~1e4 rad and sums of ~1e5 terms leave rounding near 1e-12; a fault in
#: the separable sum shows at order one.
_ROUNDING_RTOL = 1e-9


#: Bytes of C_ext-free factors that one holding() block keeps: calls past
#: it are computed unheld. It covers every point set of a calibration at
#: 1 km and more.
_HELD_BYTES = 2**26

#: The open holding() block's factors by call key, as (grid, bytes,
#: factors); None while no block is open.
_held: dict | None = None


class holding:
    """Context manager that holds the kernel's C_ext-free factors.

    Inside ``with holding():``, field_on_grid and field_at_points keep
    each call's factors that do not depend on C_ext (see _factors), up
    to _HELD_BYTES. A repeat that differs only in C_ext applies its
    extinction exp(-C_ext*nbar*R) to them in the unheld call's operation
    order, so it returns the same bits. Nothing is held once the block
    exits.
    """

    def __enter__(self):
        global _held
        _held = {}
        return self

    def __exit__(self, *exc):
        global _held
        _held = None


def _factors(build, nbytes: int, kind: str, grid: ApertureGrid, geom, dust, wavelength,
             *points):
    """build()'s tuple of C_ext-free factors, whose last item iterates
    over blocks. Inside holding(), they are keyed by kind, the grid
    object, geometry, dust model with C_ext cleared, wavelength and the
    points (arrays by their bytes): a held key is served, and a new one
    is held, its blocks as a list, while the held bytes stay within
    _HELD_BYTES. Otherwise the blocks stream."""
    if _held is None:
        return build()
    key = (kind, id(grid), geom, None if dust is None else replace(dust, C_ext=0.0), wavelength,
           *(p.tobytes() if isinstance(p, np.ndarray) else p for p in points))
    if key in _held:
        return _held[key][2]
    factors = build()
    if sum(entry[1] for entry in _held.values()) + nbytes <= _HELD_BYTES:
        factors = (*factors[:-1], list(factors[-1]))
        _held[key] = (grid, nbytes, factors)  # the grid keeps id(grid) in the key unique
    return factors


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

    (blocks,) = _factors(
        lambda: (_point_factors(grid, geom, dust, wavelength, x, y, z),),
        x.size * grid.x.size * 8 * (3 if dust is None else 4),
        "points", grid, geom, dust, wavelength, x, y, z,
    )
    out = np.empty(x.size, dtype=complex)
    for sl, amp, cos, sin, cn in blocks:
        if dust is not None and dust.C_ext > 0.0:
            amp = amp * np.exp(-dust.C_ext * cn)
        out[sl] = np.sum(amp * cos, axis=1) - 1j * np.sum(amp * sin, axis=1)
    if not np.all(np.isfinite(out.view(float))):
        raise NumericalError("field accumulation produced non-finite values")
    return out.reshape(shape)


def _point_factors(grid, geom, dust, wavelength, x, y, z):
    """field_at_points's C_ext-free factors per block of points: the block's
    slice, a/R, cos and sin of the phase, and nbar*R (None without dust)."""
    k = 2.0 * math.pi / wavelength
    if dust is not None:
        ys_src, src_row = grid._distinct_y
        hs, h_dst = ray_heights(geom, ys_src, y, z)
        hd, dst_row = np.unique(h_dst, return_inverse=True)
        nbar_table = mean_density(dust, hd[:, None], hs[None, :])
        kappa = k * dust.polarizability_volume

    src_amp = grid.weight * grid.e0 / wavelength
    n_nodes = grid.x.size
    block = max(1, _BLOCK_ELEMENTS // max(n_nodes, 1))
    for start in range(0, x.size, block):
        sl = slice(start, min(start + block, x.size))
        dx = x[sl, None] - grid.x[None, :]
        dy = y[sl, None] - grid.y[None, :]
        zz = z[sl, None]
        rho2 = dx * dx + dy * dy
        R = np.sqrt(rho2 + zz * zz)
        phase = k * (rho2 / (R + zz))
        cn = None
        if dust is not None:
            cn = np.take(nbar_table[dst_row[sl]], src_row, axis=1) * R
            phase = phase + kappa * cn
        yield sl, src_amp[None, :] / R, np.cos(phase), np.sin(phase), cn


def field_at_point(
    grid: ApertureGrid,
    dst: PathPoint,
    geom: ScenarioGeometry,
    dust: DustModel | None,
    wavelength: float,
) -> complex:
    """Complex field at a single destination path point [V/m]."""
    return complex(field_at_points(grid, geom, dust, wavelength, dst.x, dst.y, dst.z))


def _cross_term_bound(k: float, z: float, u: float, v: float, col: float) -> float:
    """Bound on a pair's error in the separable kernel, relative to |X*Y|.

    u and v bound dx^2 and dy^2 over the pairs, col bounds |c|*nbar
    [1/m] (0 without dust). ln G is a power series in u; past its first
    term, the series of -j*k*(R - R_y - R_x + z) errs by at most
    3*k*v/16z * r^2/(1 - r) with r = u/z^2 (binomial series of R and
    R_x, each term below 3/8 * v/2z * r^m), the column's -c*nbar*(R - R_y)
    by col*z/8 * r^2 and -ln(R/R_y) by r^2/4. Their sum b bounds the
    tail, and w, a bound on |l1*u| plus b, bounds |ln G|, so
    |G - 1 - l1*u| <= w^2/2 * e^w + b. The bound grows with u and v,
    so the corner of the grid bounds every pair; it is inf where the
    series diverge (r >= 1) or w >= 1.
    """
    r = u / (z * z)
    if r >= 1.0:
        return math.inf
    b = (3.0 * k * v / (16.0 * z) + col * z / 8.0 + 0.25) * r * r / (1.0 - r)
    w = 0.5 * (k * v / (2.0 * z**3) + col / z + 1.0 / (z * z)) * u + b
    return 0.5 * w * w * math.exp(w) + b if w < 1.0 else math.inf


def _contract(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """E[i, j] = sum over k of left[i, k] * right[j, k], as BLAS dots
    (matmul of stacked vectors) over k-slices of _DOT_SLICE added in order."""
    return sum(
        np.matmul(left[:, None, None, s:s + _DOT_SLICE], right[None, :, s:s + _DOT_SLICE, None])
        for s in range(0, left.shape[1], _DOT_SLICE)
    )[:, :, 0, 0]


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
    :func:`field_at_points` on those points, for a grid from
    build_aperture_grid. The lattice nodes and, as a diagonal node set,
    the rim nodes are summed separably (see the module docstring), and
    one grid point is checked against field_at_points. A grid whose
    bound on the dropped cross terms exceeds _FRESNEL_REMAINDER_MAX is
    refused with a ResolutionError before any sum starts.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    z = float(z)
    if z <= 0.0:
        raise ValidationError("destination points must lie at z > 0")
    k = 2.0 * math.pi / wavelength

    cx, cy, _, _, first, amp_sum = grid._separable
    u = (float(np.max(np.abs(xs))) + float(np.max(np.abs(cx)))) ** 2
    v = (float(np.max(np.abs(ys))) + float(np.max(np.abs(cy)))) ** 2
    col, h_src, h_dst = 0.0, None, None
    if dust is not None:
        # Mean density never rises with either endpoint height.
        h_src, h_dst = ray_heights(geom, cy, ys, z)
        c = complex(dust.C_ext, k * dust.polarizability_volume)
        col = abs(c) * mean_density(dust, np.min(h_dst), np.min(h_src))
    bound = _cross_term_bound(k, z, u, v, col)
    if bound > _FRESNEL_REMAINDER_MAX:
        raise ResolutionError(
            f"diffraction sum at z = {z:g} m refused: the separable kernel's cross-term "
            f"bound {bound:.3g} exceeds {_FRESNEL_REMAINDER_MAX:g}; the distance is too "
            f"short for this destination grid"
        )

    rows = max(1, min(ys.size, _ROW_BLOCK_ELEMENTS // (2 * cy.size)))
    left, blocks = _factors(
        lambda: (_left_factors(grid, k, xs, z),
                 _row_factors(dust, k, cy, ys, z, rows, h_src, h_dst)),
        32 * xs.size * (grid.axis.size + first.size) + 8 * ys.size * cy.size * (
            4 if dust is None else 6),
        "grid", grid, geom, dust, wavelength, xs, ys, z, rows,
    )
    # The right factors of each block of rows fill one reused buffer:
    # Y = amp*exp(-j*phase) and l1 = (re + j*im)*inv/2, built from real parts.
    buf = np.empty((rows, 2, cy.size), dtype=complex)
    e = np.empty((xs.size, ys.size), dtype=complex)
    for blk, inv, cos, sin, im, nbar, cn in blocks:
        amp, re = inv, -inv
        if dust is not None:
            amp = amp * np.exp(-c.real * cn)
            re = re - c.real * nbar
        right = buf[: inv.shape[0]]
        np.multiply(amp, cos, out=right[:, 0].real)
        np.multiply(-amp, sin, out=right[:, 0].imag)
        np.multiply(right[:, 0], (re + 1j * im) * (0.5 * inv), out=right[:, 1])
        e[:, blk] = _contract(left, right.reshape(inv.shape[0], -1))
    e /= wavelength
    if not np.all(np.isfinite(e.view(float))):
        raise NumericalError("field accumulation produced non-finite values")

    # The exact sum at the grid point farthest off axis, where the bound
    # is attained, checks the bound: no pair errs by more than bound
    # times |a*X*Y/lambda|, which is at most weight*e0/(lambda*z).
    i, j = int(np.argmax(np.abs(xs))), int(np.argmax(np.abs(ys)))
    exact = field_at_points(grid, geom, dust, wavelength, xs[i], ys[j], z)
    scale = amp_sum / (wavelength * z)
    if not abs(e[i, j] - exact) <= (bound + _ROUNDING_RTOL) * scale:
        raise NumericalError(
            f"separable field at ({xs[i]:.6g}, {ys[j]:.6g}, {z:.6g}) m differs from the "
            f"direct sum by {abs(e[i, j] - exact):.3g} V/m, above its bound"
        )
    return e


def _left_factors(grid: ApertureGrid, k: float, xs: np.ndarray, z: float) -> np.ndarray:
    """field_on_grid's left factors, per destination column: the lattice
    columns' sums over their spans, then the rim's sums per distinct y."""
    # Per pair with u = dx^2, a/lambda * X(dx) * Y(dy, y, y0) * (1 + l1*u):
    # X = exp(-jk*u/(R_x + z)), Y = exp(-jk*dy^2/(R_y + z) - c*nbar*R_y)/R_y
    # and l1 = (jk*dy^2/((R_y + z)*z) - c*nbar - 1/R_y) / 2R_y, with
    # R_x = sqrt(z^2 + u) and R_y = sqrt(z^2 + dy^2). The left factors are
    # X and X*u, the right ones Y and Y*l1; 1/lambda is applied at the end.
    cx, _, rim_ix, rim_a, first, _ = grid._separable
    dx2 = (xs[:, None] - cx[None, :]) ** 2
    kx = np.exp(-1j * k * (dx2 / (np.sqrt(z * z + dx2) + z)))
    left = np.stack([kx, kx * dx2], axis=1)
    # Lattice column j sums left * amp over its rows lo_j <= i < hi_j.
    n = grid.axis.size
    prefix = np.zeros((xs.size, 2, n + 1), dtype=complex)
    np.cumsum(left[:, :, :n] * grid.amp, axis=2, out=prefix[:, :, 1:])
    lo, hi = grid.spans
    la = (prefix[:, :, hi] - prefix[:, :, lo]) * grid.amp
    # The rim nodes' left columns, scaled by their amplitudes, are summed
    # per distinct y (in a fixed order), where they meet one right column.
    rim = np.add.reduceat(np.take(left[:, :, n:], rim_ix, axis=2) * rim_a, first, axis=2)
    return np.concatenate([la, rim], axis=2).reshape(xs.size, -1)


def _row_factors(dust, k, cy, ys, z, rows, h_src, h_dst):
    """field_on_grid's C_ext-free right factors per block of rows: the block's
    slice, 1/R_y, cos and sin of the phase, l1's imaginary part before the
    1/2R_y, and nbar and nbar*R_y (None without dust)."""
    kappa = None if dust is None else k * dust.polarizability_volume
    for start in range(0, ys.size, rows):
        blk = slice(start, min(start + rows, ys.size))
        dy2 = (ys[blk, None] - cy[None, :]) ** 2
        ry = np.sqrt(z * z + dy2)
        phase = k * (dy2 / (ry + z))
        im, nbar, cn = phase / z, None, None
        if dust is not None:
            nbar = mean_density(dust, h_dst[blk, None], h_src[None, :])
            cn = nbar * ry
            phase = phase + kappa * cn
            im = im - kappa * nbar
        yield blk, 1.0 / ry, np.cos(phase), np.sin(phase), im, nbar, cn


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
    # compute_irradiance_map's mirrored half relies on.
    step = 2.0 * half_width / (count - 1)
    return (np.arange(count) - (count - 1) / 2.0) * step


def compute_irradiance_map(
    scenario,
    extent: float | None = None,
    resolution: int = 129,
) -> IrradianceMap:
    """Irradiance over a uniform grid on the panel plane.

    The x >= 0 half is evaluated and mirrored: values[:, ::-1] == values.

    Parameters
    ----------
    scenario : Scenario
        Validated scenario; dust applies when enabled (with its stored
        cross-section).
    extent : float, optional
        Half-width of the sampled square [m]; by default the beam-shift
        analysis window, SHIFT_WINDOW_FACTOR panel half-extents per axis.
    resolution : int
        Grid points per axis, 32 to 4097 (at 4097, about 0.3 GB of arrays).
    """
    geom = scenario.geometry
    if extent is None:
        ex, ey = SHIFT_WINDOW_FACTOR * geom.L / 2.0, SHIFT_WINDOW_FACTOR * geom.W / 2.0
    else:
        ex = ey = float(extent)
    if not 0.0 < ex < math.inf:
        raise ValidationError(f"map extent must be positive and finite, got {extent}")
    if ex < geom.L / 2 or ey < geom.W / 2:
        raise ValidationError(
            f"map extent {extent} m does not cover the {geom.L} x {geom.W} m panel"
        )
    if not 32 <= resolution <= 4097:
        raise ValidationError(f"map resolution must be >= 32 and <= 4097, got {resolution}")

    ap_res = window_aperture_resolution(scenario, ex, ey)
    xs = _symmetric_axis(ex, resolution)
    ys = _symmetric_axis(ey, resolution)
    grid = build_aperture_grid(scenario.laser, ap_res)
    # The irradiance is even in x (symmetric aperture, ray heights
    # independent of x) and xs mirrors exactly; with an odd count the
    # x >= 0 half starts at x = 0.
    half = irradiance_on_grid(scenario, grid, xs[resolution // 2:], ys)
    mirror = half[:0:-1] if resolution % 2 else half[::-1]
    # C order, so that sums over the map (beam_shift) run row by row.
    values = np.ascontiguousarray(np.concatenate([mirror, half]).T)

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

"""Element-sum propagation of the aperture field to destination points.

Every aperture node contributes a spherical wavelet 1/(lambda*R) *
E0 * exp(-j*Phi) * dA; the destination field is the plain sum (no
obliquity factor, consistent with the sub-degree tilts involved).
Phi is complex: its imaginary part (extinction) attenuates the
amplitude, its real part carries vacuum propagation plus the excess
from the dust's real index.

Two precision measures keep the oscillatory sum honest at long range:
the vacuum phase enters as k*(R - z) computed by the cancellation-free
identity R - z = rho^2/(R + z) (the common factor exp(-j*k*z) carries
no transverse information and is dropped), and summation runs in a
fixed node order with numpy's pairwise reduction so results are
bit-identical regardless of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dust import DustModel
from .errors import NumericalError, TerrainError, ValidationError
from .geometry import PathPoint, ScenarioGeometry
from .phase import mean_density
from .source import ApertureGrid, LaserSource, build_aperture_grid

#: Sampling-rule floor [cells/axis]: keeps the smooth Gaussian envelope
#: well resolved even where the oscillation bound alone is loose.
MIN_APERTURE_RESOLUTION = 64

#: Pairwise-product budget per vectorized block. 2e6 doubles keep each
#: temporary array at 16 MB, small enough that the allocator recycles
#: them instead of round-tripping pages through the kernel.
_BLOCK_ELEMENTS = 2_000_000


def required_aperture_resolution(
    ls: LaserSource,
    z_min: float,
    rho_max: float,
    floor: int = MIN_APERTURE_RESOLUTION,
) -> int:
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
    return max(floor, int(math.ceil(2.0 * ls.r_a / delta)))


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
    gx, gy = grid.x, grid.y
    src_amp = grid.weight * grid.e0 / wavelength
    cos_t = math.cos(geom.theta)
    if dust is not None:
        h_src = gy * cos_t + geom.h0  # per node
        h_axis = geom.h0 + (geom.hp - geom.h0) * (z / geom.D)
        h_dst = y * cos_t + h_axis  # per destination point
        if np.min(h_src) <= 0.0 or np.min(h_dst) <= 0.0:
            raise TerrainError(
                "a source-to-destination ray touches the ground "
                f"(lowest endpoint heights {np.min(h_src):.6g}, {np.min(h_dst):.6g} m)"
            )
        hs, src_row = np.unique(h_src, return_inverse=True)
        hd, dst_row = np.unique(h_dst, return_inverse=True)
        nbar_table = mean_density(dust, hd[:, None], hs[None, :])
        kappa = k * dust.polarizability_volume

    n_nodes = gx.size
    out = np.empty(x.size, dtype=complex)
    block = max(1, _BLOCK_ELEMENTS // max(n_nodes, 1))
    for start in range(0, x.size, block):
        sl = slice(start, min(start + block, x.size))
        dx = x[sl, None] - gx[None, :]
        dy = y[sl, None] - gy[None, :]
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


def irradiance_at_point(field_value, eta: float):
    """Irradiance |E|^2 / (2*eta) [W/m^2]."""
    e = np.asarray(field_value)
    val = (e.real**2 + e.imag**2) / (2.0 * eta)
    if e.ndim == 0:
        return float(val)
    return val


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


def _symmetric_axis(half_width: float, count: int) -> np.ndarray:
    # (i - (count-1)/2) * step mirrors exactly in floating point, which
    # the x-parity property relies on.
    step = 2.0 * half_width / (count - 1)
    return (np.arange(count) - (count - 1) / 2.0) * step


def _map_rows(scenario, extent, resolution, aperture_resolution, row_range):
    """Worker body: irradiance rows [row_range) of the map grid."""
    ex, ey = extent
    nx, ny = resolution
    xs = _symmetric_axis(ex, nx)
    ys = _symmetric_axis(ey, ny)
    grid = build_aperture_grid(scenario.laser, aperture_resolution)
    lo, hi = row_range
    xg, yg = np.meshgrid(xs, ys[lo:hi], indexing="xy")
    e = field_at_points(
        grid,
        scenario.geometry,
        scenario.active_dust(),
        scenario.laser.wavelength,
        xg.ravel(),
        yg.ravel(),
        np.full(xg.size, scenario.geometry.D),
    )
    return irradiance_at_point(e, scenario.laser.eta).reshape(hi - lo, nx)


def compute_irradiance_map(
    scenario,
    extent=None,
    resolution: int | tuple[int, int] = 129,
    workers: int | None = None,
) -> IrradianceMap:
    """Irradiance over a uniform grid on the panel plane.

    Parameters
    ----------
    scenario : Scenario
        Validated scenario; dust applies when enabled (with its stored
        cross-section).
    extent : float or (float, float), optional
        Half-widths of the sampled rectangle [m]; defaults to three
        panel half-extents, the beam-shift analysis window.
    resolution : int or (int, int)
        Grid points per axis, at least 32.
    workers : int, optional
        Parallel row workers; defaults to the scenario numerics value.
        The result is identical for any worker count.
    """
    geom = scenario.geometry
    if extent is None:
        extent = (1.5 * geom.L, 1.5 * geom.W)
    elif np.ndim(extent) == 0:
        extent = (float(extent), float(extent))
    ex, ey = float(extent[0]), float(extent[1])
    if ex <= 0 or ey <= 0:
        raise ValidationError(f"map extent must be positive, got {extent}")
    if ex < geom.L / 2 or ey < geom.W / 2:
        raise ValidationError(
            f"map extent {extent} m does not cover the {geom.L} x {geom.W} m panel"
        )
    if np.ndim(resolution) == 0:
        resolution = (int(resolution), int(resolution))
    nx, ny = int(resolution[0]), int(resolution[1])
    if nx < 32 or ny < 32:
        raise ValidationError(f"map resolution must be >= 32 per axis, got {resolution}")

    ap_res = scenario.numerics.aperture_resolution or required_aperture_resolution(
        scenario.laser, geom.D, math.hypot(ex, ey)
    )
    n_workers = workers if workers is not None else scenario.numerics.workers

    if n_workers > 1 and ny >= 2 * n_workers:
        bounds = np.linspace(0, ny, n_workers + 1, dtype=int)
        ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(
                pool.map(
                    _map_rows,
                    [scenario] * len(ranges),
                    [(ex, ey)] * len(ranges),
                    [(nx, ny)] * len(ranges),
                    [ap_res] * len(ranges),
                    ranges,
                )
            )
        values = np.vstack(parts)
    else:
        values = _map_rows(scenario, (ex, ey), (nx, ny), ap_res, (0, ny))

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
        xs=_symmetric_axis(ex, nx),
        ys=_symmetric_axis(ey, ny),
        values=values,
        extent=(ex, ey),
        distance=geom.D,
        meta=meta,
    )

"""Cumulative complex phase along straight rays through the dust layer.

The phase of a ray is the path integral of 2*pi*n(h)/lambda, where the
complex index n depends only on height and the height varies linearly
along the ray. That reduces every ray to the column number density
(the path integral of the particle density): the ray length times the
closed-form mean density over its endpoint heights, split piecewise at
the floor and ceiling heights. :func:`mean_density` is the one formula
for it; the diffraction engine evaluates it too, and the ``validate``
command checks it against adaptive quadrature.

The real part is stored as vacuum term plus excess: the vacuum term
2*pi*R/lambda reaches ~3e11 rad at 50 km, and keeping the tiny dust
excess separate preserves its full double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Only scipy's package root loads here (~6 ms; submodules load on first
# use), so callers that record the environment after importing moonbeam,
# such as bench/worker.py, find scipy.__version__ in sys.modules.
import scipy  # noqa: F401

from .dust import DustModel, imag_index, particle_density
from .errors import DomainError, NumericalError
from .geometry import PathPoint, ScenarioGeometry, endpoint_heights

# Relative height difference below which the density along the ray is
# treated as constant (midpoint value). The closed-form mean is stable
# well below this; the guard only avoids 0/0 at exactly equal heights.
_EQUAL_HEIGHT_RTOL = 1e-9


@dataclass(frozen=True)
class ComplexPhase:
    """Accumulated complex phase of one ray.

    Attributes
    ----------
    re_vacuum : float
        Vacuum contribution 2*pi*R/lambda [rad].
    re_excess : float
        Additional phase from the real index excess n - 1 [rad].
    im : float
        Field-extinction exponent; the field carries exp(-im).
    """

    re_vacuum: float
    re_excess: float
    im: float

    def __post_init__(self):
        if self.im < 0:
            raise DomainError(f"extinction exponent must be >= 0, got {self.im}")
        if self.re_vacuum < 0:
            raise DomainError(f"vacuum phase must be >= 0, got {self.re_vacuum}")


def mean_density(dm: DustModel, h1, h2):
    """Average particle density over heights [h1, h2] [m^-3].

    Exact closed form from the antiderivative of the profile, split at
    the floor and ceiling. Written to stay fully accurate as h2 -> h1
    (no differencing of large antiderivative values): within the
    logarithmic region the mean over [a, b] is

        A*(1 - ln(a/H)) - A*b*log1p((b-a)/a)/(b-a),

    whose only cancellation is bounded by eps*A/N, negligible except
    within microns of the ceiling. Accepts scalars or arrays; ln is
    taken per endpoint, so log1p is the only per-pair transcendental.
    """
    h1a = np.asarray(h1, dtype=float)
    h2a = np.asarray(h2, dtype=float)
    if np.any(h1a <= 0.0) or np.any(h2a <= 0.0):
        raise DomainError("heights must be positive to evaluate the density profile")
    scalar = h1a.ndim == 0 and h2a.ndim == 0
    h1a, h2a = np.atleast_1d(h1a, h2a)
    span = np.abs(h1a - h2a)
    total = h1a + h2a
    near_equal = span <= _EQUAL_HEIGHT_RTOL * total
    # Logarithmic segment [a, b] between floor and ceiling (zero density
    # above). Endpoints are clamped and their logs taken before they
    # broadcast: clipping is monotone, so a and ln(a/H) are the smaller.
    c1 = np.clip(h1a, dm.h_floor, dm.H)
    c2 = np.clip(h2a, dm.h_floor, dm.H)
    log_a = np.minimum(np.log(c1 / dm.H), np.log(c2 / dm.H))
    a = np.minimum(c1, c2)
    b = np.maximum(c1, c2)
    seg = b - a
    seg_safe = np.where(seg > 0.0, seg, 1.0)
    integral = dm.A * (1.0 - log_a) - dm.A * b * np.log1p(seg / a) / seg_safe
    integral *= seg
    if np.any(h1a < dm.h_floor) or np.any(h2a < dm.h_floor):
        # Clamped-region segment: constant density down to the floor.
        lo = np.minimum(h1a, h2a)
        below_len = np.clip(np.minimum(np.maximum(h1a, h2a), dm.h_floor) - lo, 0.0, None)
        integral = below_len * (-dm.A * math.log(dm.h_floor / dm.H)) + integral
    with np.errstate(divide="ignore", invalid="ignore"):
        result = integral / span
    if np.any(near_equal):
        # Midpoint value where the interval is degenerate.
        mid = np.clip(0.5 * total[near_equal], dm.h_floor, dm.H)
        result[near_equal] = -dm.A * np.log(mid / dm.H)
    if scalar:
        return float(result[0])
    return result


def column_density(dm: DustModel, h1, h2, R):
    """Path integral of the particle density along a ray [m^-2].

    h1, h2 are the ray's endpoint heights and R its length; the height
    varies linearly along the ray, so the integral is R times the mean
    density over the height interval.
    """
    return mean_density(dm, h1, h2) * np.asarray(R, dtype=float)


def _ray_inputs(src: PathPoint, dst: PathPoint, geom: ScenarioGeometry):
    R = math.dist((src.x, src.y, src.z), (dst.x, dst.y, dst.z))
    return (R, *endpoint_heights(src, dst, geom))


def cumulative_phase(
    src: PathPoint,
    dst: PathPoint,
    geom: ScenarioGeometry,
    dust: DustModel | None,
    wavelength: float,
) -> ComplexPhase:
    """Complex phase accumulated from src to dst, in closed form.

    With no dust model the result is the pure vacuum phase. Otherwise
    the real excess integrates the volume-fraction index and the
    imaginary part is C_ext times the column density.
    """
    if wavelength <= 0:
        raise DomainError(f"wavelength must be positive, got {wavelength}")
    R, h_src, h_dst = _ray_inputs(src, dst, geom)
    k = 2.0 * math.pi / wavelength
    if dust is None:
        return ComplexPhase(k * R, 0.0, 0.0)
    cn = column_density(dust, h_src, h_dst, R)
    re_excess = k * dust.polarizability_volume * cn
    im = dust.C_ext * cn
    return ComplexPhase(k * R, re_excess, im)


def cumulative_phase_quadrature(
    src: PathPoint,
    dst: PathPoint,
    geom: ScenarioGeometry,
    dust: DustModel | None,
    wavelength: float,
    tol: float = 1e-12,
) -> ComplexPhase:
    """Complex phase by adaptive quadrature of the index along the ray.

    Independent of the closed form: integrates n(h(R')) - 1 directly
    over arclength. Intended for tests and the validation command, not
    the hot path.
    """
    from scipy.integrate import quad  # deferred: costs most of the package import

    if wavelength <= 0:
        raise DomainError(f"wavelength must be positive, got {wavelength}")
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    R, h_src, h_dst = _ray_inputs(src, dst, geom)
    k = 2.0 * math.pi / wavelength
    if dust is None or R == 0.0:
        return ComplexPhase(k * R, 0.0, 0.0)

    def height_at(rp: float) -> float:
        return h_src + (h_dst - h_src) * (rp / R)

    # Arclengths where the ray crosses the profile's breakpoints; quad
    # integrates exactly up to tolerance between them.
    breaks = []
    for h_break in (dust.h_floor, dust.H):
        if h_dst != h_src:
            rp = (h_break - h_src) * R / (h_dst - h_src)
            if 0.0 < rp < R:
                breaks.append(rp)
    breaks = sorted(breaks) or None

    # The real integrand is the index excess n(h) - 1 = alpha * N(h),
    # built directly from the density: forming the index n and then
    # n - 1.0 would lose ~3 digits to cancellation at excesses of ~1e-13.
    alpha = dust.polarizability_volume
    re_int, re_err = quad(
        lambda rp: alpha * particle_density(dust, height_at(rp)),
        0.0, R, points=breaks, limit=400, epsabs=0.0, epsrel=tol,
    )
    im_int, im_err = quad(
        lambda rp: imag_index(dust, height_at(rp), wavelength),
        0.0, R, points=breaks, limit=400, epsabs=0.0, epsrel=tol,
    )
    for val, err, name in ((re_int, re_err, "real"), (im_int, im_err, "imaginary")):
        if val != 0.0 and err > 100.0 * tol * abs(val):
            raise NumericalError(
                f"phase quadrature ({name} part) did not reach tolerance: "
                f"estimate {val:.6g}, error {err:.3g}"
            )
    return ComplexPhase(k * R, k * re_int, max(k * im_int, 0.0))

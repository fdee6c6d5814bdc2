"""Suspended-dust medium: density profile, complex index, cross-sections.

The particle number density falls logarithmically with height and is
zero above a ceiling height H. The medium's complex refractive index
combines a volume-fraction real part (refraction) with an imaginary
part proportional to the extinction cross-section C_ext (attenuation).

C_ext itself is never hardwired: it can be supplied explicitly,
computed from Mie theory for spherical particles, or calibrated so a
chosen scenario reproduces a reference received power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError, DomainError, NumericalError


@dataclass(frozen=True)
class DustModel:
    """Height-stratified dust medium.

    Parameters
    ----------
    d_p : float
        Particle diameter [m].
    C_ext : float
        Extinction cross-section per particle [m^2].
    m_p : float
        Bulk refractive index of the particle material (real part).
    A : float
        Density profile coefficient [m^-3].
    H : float
        Ceiling height above which the density is zero [m].
    h_floor : float
        Evaluation floor [m]: below it the density is clamped to its
        floor value so the logarithm cannot diverge toward the ground.
    """

    d_p: float
    C_ext: float
    m_p: float = 1.733
    A: float = 4.166e8
    H: float = 8.68
    h_floor: float = 1e-3

    def __post_init__(self):
        if self.d_p <= 0:
            raise DomainError(f"particle diameter must be positive, got {self.d_p}")
        if self.C_ext < 0:
            raise DomainError(f"extinction cross-section must be >= 0, got {self.C_ext}")
        if self.A <= 0:
            raise DomainError(f"density coefficient must be positive, got {self.A}")
        if self.H <= 0:
            raise DomainError(f"ceiling height must be positive, got {self.H}")
        if not 0 < self.h_floor < self.H:
            raise DomainError(
                f"evaluation floor must lie in (0, H={self.H}), got {self.h_floor}"
            )

    @property
    def polarizability_volume(self) -> float:
        """(m_p - 1) * particle volume [m^3], the real-index weight."""
        return (self.m_p - 1.0) * (4.0 * math.pi / 3.0) * (self.d_p / 2.0) ** 3


def particle_density(dm: DustModel, h):
    """Particle number density at height h [m^-3].

    -A*ln(h/H) between the floor and the ceiling, clamped to the floor
    value below h_floor, zero at and above H. Accepts scalars or
    arrays; h <= 0 anywhere is a domain error.
    """
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr <= 0.0):
        raise DomainError("height must be positive to evaluate the density profile")
    hc = np.clip(h_arr, dm.h_floor, dm.H)
    n = -dm.A * np.log(hc / dm.H)
    if h_arr.ndim == 0:
        return float(n)
    return n


def imag_index(dm: DustModel, h, wavelength: float):
    """Imaginary refractive index at height h (field attenuation).

    C_ext * N(h) * wavelength / (2*pi); zero at and above the ceiling.
    """
    if wavelength <= 0:
        raise DomainError(f"wavelength must be positive, got {wavelength}")
    return dm.C_ext * particle_density(dm, h) * wavelength / (2.0 * math.pi)


def rayleigh_cross_section(d_p: float, wavelength: float, m_p: float) -> float:
    """Small-particle extinction cross-section [m^2].

    (2/3) * pi^5 * d_p^6 / lambda^4 * ((m^2-1)/(m^2+2))^2, valid in the
    regime pi*d_p/lambda < 1. Serves as the independent check for the
    Mie series.
    """
    if d_p <= 0 or wavelength <= 0 or m_p <= 0:
        raise DomainError("Rayleigh cross-section needs positive d_p, wavelength, m_p")
    lorentz = (m_p**2 - 1.0) / (m_p**2 + 2.0)
    return (2.0 / 3.0) * math.pi**5 * d_p**6 / wavelength**4 * lorentz**2


def mie_cross_sections(d_p: float, wavelength: float, m_p, n_terms: int | None = None):
    """Mie extinction and scattering cross-sections of a sphere.

    Parameters
    ----------
    d_p, wavelength : float
        Particle diameter and vacuum wavelength [m].
    m_p : complex
        Relative refractive index of the particle.
    n_terms : int, optional
        Series length override; defaults to ceil(x + 4*x^(1/3) + 2).

    Returns
    -------
    (C_ext, C_sca, x) : (float, float, float)
        Cross-sections [m^2] and the size parameter x = pi*d_p/lambda.

    Notes
    -----
    Standard partial-wave series with the logarithmic derivative
    obtained by downward recurrence (stable at any size parameter) and
    the Riccati-Bessel functions by upward recurrence. For a purely
    real index the two cross-sections coincide.
    """
    if d_p <= 0 or wavelength <= 0:
        raise DomainError("Mie cross-sections need positive d_p and wavelength")
    x = math.pi * d_p / wavelength
    m = complex(m_p)
    if m.real <= 0 or m.imag < 0:
        raise DomainError(f"particle index must have Re > 0 and Im >= 0, got {m}")

    n_max = int(math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0)) if n_terms is None else int(n_terms)
    if n_max < 1:
        raise DomainError(f"series length must be >= 1, got {n_max}")
    mx = m * x

    # Downward recurrence for the logarithmic derivative D_n(mx), seeded
    # well above the last retained order.
    n_start = int(max(n_max, abs(mx))) + 16
    d_log = np.zeros(n_start + 1, dtype=complex)
    for n in range(n_start, 0, -1):
        rn = n / mx
        d_log[n - 1] = rn - 1.0 / (d_log[n] + rn)
    d_log = d_log[1 : n_max + 1]

    # Riccati-Bessel psi_n(x) and chi_n(x) by upward recurrence.
    ns = np.arange(1, n_max + 1, dtype=float)
    psi = np.empty(n_max + 1)
    chi = np.empty(n_max + 1)
    psi_m1, psi[0] = math.cos(x), math.sin(x)
    chi_m1, chi[0] = -math.sin(x), math.cos(x)
    for n in range(1, n_max + 1):
        f = (2 * n - 1) / x
        psi[n] = f * psi[n - 1] - (psi_m1 if n == 1 else psi[n - 2])
        chi[n] = f * chi[n - 1] - (chi_m1 if n == 1 else chi[n - 2])
    xi = psi - 1j * chi
    psi_n, psi_prev = psi[1:], psi[:-1]
    xi_n, xi_prev = xi[1:], xi[:-1]

    ta = d_log / m + ns / x
    tb = d_log * m + ns / x
    a = (ta * psi_n - psi_prev) / (ta * xi_n - xi_prev)
    b = (tb * psi_n - psi_prev) / (tb * xi_n - xi_prev)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericalError(
            "Mie recurrence produced non-finite coefficients "
            f"(x={x:.6g}, m={m}, n_max={n_max}, n_start={n_start})"
        )

    weight = 2.0 * ns + 1.0
    pref = wavelength**2 / (2.0 * math.pi)
    c_ext = pref * float(np.sum(weight * (a + b).real))
    c_sca = pref * float(np.sum(weight * (np.abs(a) ** 2 + np.abs(b) ** 2)))
    return c_ext, c_sca, x


def mie_extinction_cross_section(d_p: float, wavelength: float, m_p) -> float:
    """Mie extinction cross-section [m^2]; see :func:`mie_cross_sections`."""
    c_ext, _, _ = mie_cross_sections(d_p, wavelength, m_p)
    return c_ext


def calibrate_cext(scenario, reference_power: float) -> float:
    """Fit C_ext so the scenario's received power equals a reference.

    Illinois regula falsi (Dowell & Jarratt 1971) on ln(P / reference),
    from 0 and the Rayleigh probe: it extends the secant until the root
    is bracketed and bisects past a probe whose P underflows to 0. It
    stops once a step moves C_ext by at most 2.5e-4 relative, or the
    bracket narrows to 1e-3. Every probe uses panel_power's aperture
    grid, built once, and the quadrature order chosen adaptively at the
    Rayleigh probe. The root is then probed once on the adaptive
    schedule, and the search resumes from it at that probe's order.

    Parameters
    ----------
    scenario : Scenario
        Fully validated scenario; its dust settings (other than C_ext)
        and geometry define the forward model. Dust is treated as
        enabled regardless of the scenario flag.
    reference_power : float
        Target received power [W], strictly between 0 and P0.

    Returns
    -------
    float
        The cross-section [m^2] at which the simulated panel power
        equals the reference, to within 5e-4 relative; the root is
        unique, as power falls monotonically in C_ext. The power then
        misses the reference by up to about 5e-4 * |ln(reference / P(0))|
        relative: 0.18% at 50 km for a 3 W reference. A reference within
        0.1% of P(0) returns 0.

    Raises
    ------
    CalibrationError
        If the reference exceeds the power at C_ext = 0 or the search
        bracket cannot be expanded to straddle it.
    """
    from .receiver import _panel_grid, _panel_power  # deferred: import cycle

    p0 = scenario.laser.P0
    if not 0.0 < reference_power < p0:
        raise DomainError(
            f"reference power must lie in (0, P0={p0}), got {reference_power}"
        )
    grid = _panel_grid(scenario)

    def probe(c: float, order: int | None = None):
        """(order, ln(P / reference)) at C_ext = c; -inf where P underflows."""
        trial = scenario.with_updates(dust_enabled=True, dust=replace(scenario.dust, C_ext=c))
        order, p = _panel_power(trial, grid, order)[0][-1]
        return order, (math.log(p / reference_power) if p > 0.0 else -math.inf)

    rel_tol = 1e-3
    f_zero = probe(0.0)[1]
    if abs(math.expm1(f_zero)) <= rel_tol:
        return 0.0
    if f_zero < 0.0:
        raise CalibrationError(
            f"reference power {reference_power} W exceeds the extinction-free "
            f"power {reference_power * math.exp(f_zero):.6g} W; no C_ext >= 0 can reach it",
            bracket=(0.0, 0.0),
        )

    def solve(c, probed):
        # f(lo) > 0 >= f(hi), with hi = inf until found; x is the previous probe.
        (order, f_c), lo, f_lo, hi, f_hi = probed, 0.0, f_zero, math.inf, None
        x, f_x = lo, f_lo
        for _ in range(100):
            if f_c > 0.0:
                lo, f_lo = c, f_c
            else:
                hi, f_hi = c, f_c
            if f_hi is not None and (f_c > 0.0) == (f_x > 0.0):  # same end twice: Illinois
                f_hi, f_lo = (f_hi / 2.0, f_lo) if f_c > 0.0 else (f_hi, f_lo / 2.0)
            if f_hi is None:
                new = c + (c - x) * f_c / (f_x - f_c) if f_x > f_c else 10.0 * c
            else:
                new = 0.5 * (lo + hi) if math.isinf(f_hi) else lo + f_lo * (hi - lo) / (f_lo - f_hi)
            if abs(new - c) <= 2.5e-4 * new or hi - lo <= rel_tol * 0.5 * (hi + lo) < math.inf:
                return new
            x, f_x, c = c, f_c, new
            f_c = probe(c, order)[1]
        raise CalibrationError(
            f"could not fit reference power {reference_power} W; last bracket {lo:.6g}, {hi:.6g}",
            bracket=(lo, hi),
        )

    c_r = rayleigh_cross_section(scenario.dust.d_p, scenario.laser.wavelength, scenario.dust.m_p)
    root = solve(c_r, probe(c_r))
    return solve(root, probe(root))  # the re-check, on the adaptive schedule

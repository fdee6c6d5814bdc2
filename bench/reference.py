"""Independent reference for the benchmark's correctness checks.

Nothing here imports the program under test. The clear-air field is the
paraxial Fresnel integral of a truncated Gaussian aperture, reduced to a
Hankel transform by circular symmetry:

    U(r) = (2*pi / (lambda*z)) * int_0^r_a E0(rho) exp(-i k rho^2 / 2z)
           J0(k rho r / z) rho d(rho)

evaluated by Gauss-Legendre on the aperture radius. Panel power is a
second Gauss-Legendre rule over one quadrant of the panel. Dust enters
as Beer-Lambert extinction along the centre-to-centre axis, with the
column taken from the closed-form integral of N(h) = -A ln(h/H).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0

#: Gauss-Legendre orders. The test suite doubles both and requires the
#: result to move by less than 1e-9 relative at every distance used.
APERTURE_ORDER = 160
PANEL_ORDER = 96


def _field_factor(r, z, *, w0, r_a, wavelength):
    """F(r) = int_0^r_a exp(-rho^2 (1/w0^2 + i k/2z)) J0(k rho r/z) rho d(rho)."""
    k = 2.0 * math.pi / wavelength
    t, w = np.polynomial.legendre.leggauss(APERTURE_ORDER)
    rho = 0.5 * r_a * (t + 1.0)
    wr = 0.5 * r_a * w * rho
    gauss = np.exp(-(rho**2) * (1.0 / w0**2 + 0.5j * k / z))
    r = np.asarray(r, dtype=float)
    bessel = j0(k * np.multiply.outer(r, rho) / z)
    return bessel @ (wr * gauss)


def _irradiance_per_watt(r, z, *, w0, r_a, wavelength):
    """Irradiance at radius r divided by the emitted power P0 [1/m^2].

    With E0 = zeta * sqrt(4 P0 eta / (pi w0^2)) exp(-rho^2/w0^2) and
    I = |U|^2 / (2 eta), the impedance cancels:
    I / P0 = zeta^2 * 8 pi / (lambda^2 z^2 w0^2) * |F(r)|^2.
    """
    zeta2 = 1.0 / -math.expm1(-2.0 * r_a**2 / w0**2)
    f = _field_factor(r, z, w0=w0, r_a=r_a, wavelength=wavelength)
    return zeta2 * 8.0 * math.pi / (wavelength**2 * z**2 * w0**2) * np.abs(f) ** 2


def clear_efficiency(z, *, w0, r_a, wavelength, L, W):
    """Share of the emitted power that lands on an L x W panel at range z."""
    t, w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    xs, wx = 0.25 * L * (t + 1.0), 0.25 * L * w
    ys, wy = 0.25 * W * (t + 1.0), 0.25 * W * w
    r = np.hypot(xs[:, None], ys[None, :])
    irr = _irradiance_per_watt(r.ravel(), z, w0=w0, r_a=r_a, wavelength=wavelength)
    return 4.0 * float(np.sum(np.outer(wx, wy).ravel() * irr))


def centre_irradiance(z, *, P0, w0, r_a, wavelength):
    """Clear-air irradiance on the axis at range z [W/m^2]."""
    return P0 * float(_irradiance_per_watt(np.zeros(1), z, w0=w0, r_a=r_a, wavelength=wavelength)[0])


def density_integral(h, *, A, H, h_floor):
    """G(h) = int_0^h N(u) du for N(u) = -A ln(clip(u, h_floor, H) / H) [m^-2]."""
    def g_log(u):
        # int -A ln(u/H) du = A (u - u ln(u/H)); zero-based at u = 0.
        return A * (u - u * math.log(u / H))

    n_floor = -A * math.log(h_floor / H)
    if h <= h_floor:
        return h * n_floor
    return h_floor * n_floor + g_log(min(h, H)) - g_log(h_floor)


def axis_column(D, h0, hp, *, A, H, h_floor):
    """Particle column along the straight centre-to-centre ray [m^-2].

    Differencing G loses accuracy when h0 and hp are within a millimetre
    of each other but not equal; the workloads use equal heights or
    heights metres apart.
    """
    length = math.hypot(D, hp - h0)
    if h0 == hp:
        n = -A * math.log(min(max(h0, h_floor), H) / H) if h0 < H else 0.0
        return n * length
    g = lambda h: density_integral(h, A=A, H=H, h_floor=h_floor)
    return length * (g(hp) - g(h0)) / (hp - h0)


def dust_transmission(c_ext, column):
    """Beer-Lambert power transmission exp(-2 C_ext column); the field
    decays as exp(-C_ext column), so power decays twice as fast."""
    return math.exp(-2.0 * c_ext * column)

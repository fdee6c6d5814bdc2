"""Tests for the truncated-Gaussian aperture and its discretization."""

import math

import numpy as np
import pytest

from moonbeam.errors import DomainError, ResolutionError, ValidationError
from moonbeam.source import LaserSource, aperture_field, build_aperture_grid

# Derived constants of the default source (P0=1000 W, w0=r_a=0.05 m,
# lambda=1064 nm, eta=377 ohm), frozen from the closed forms.
ZETA_RA_EQ_W0 = 1.07541510253          # (1 - e^-2)^(-1/2)
PEAK_AMPLITUDE = 14901.564305          # [V/m]
RAYLEIGH_RANGE = 7381.56168607         # [m]


def default_source(**kwargs):
    base = dict(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    base.update(kwargs)
    return LaserSource(**base)


def test_truncation_normalization_value():
    ls = default_source()
    assert ls.zeta == pytest.approx(ZETA_RA_EQ_W0, rel=1e-11)
    assert ls.zeta == pytest.approx(1.0 / math.sqrt(1.0 - math.exp(-2.0)), rel=1e-15)


def test_truncation_normalization_wide_aperture_limit():
    ls = default_source(r_a=0.25)  # r_a = 5*w0: truncation negligible
    assert ls.zeta == pytest.approx(1.0, abs=1e-12)


def test_peak_amplitude_and_rayleigh_range():
    ls = default_source()
    assert ls.peak_amplitude == pytest.approx(PEAK_AMPLITUDE, rel=1e-11)
    assert ls.rayleigh_range == pytest.approx(RAYLEIGH_RANGE, rel=1e-11)


@pytest.mark.parametrize(
    "field,value",
    [("P0", 0.0), ("w0", -0.05), ("r_a", 0.0), ("wavelength", 0.0), ("eta", -377.0)],
)
def test_source_validation(field, value):
    kwargs = {field: value}
    with pytest.raises(DomainError):
        default_source(**kwargs)


def test_aperture_field_profile():
    ls = default_source(r_a=0.15)
    assert aperture_field(ls, 0.0, 0.0) == pytest.approx(ls.peak_amplitude, rel=1e-15)
    assert aperture_field(ls, ls.w0, 0.0) == pytest.approx(
        ls.peak_amplitude * math.exp(-1.0), rel=1e-12
    )
    # hard window: zero at and outside the rim
    assert aperture_field(ls, ls.r_a, 0.0) == 0.0
    assert aperture_field(ls, 0.2, 0.2) == 0.0


def test_aperture_field_array_input():
    ls = default_source()
    x = np.array([0.0, 0.01, 0.2])
    e = aperture_field(ls, x, np.zeros(3))
    assert e.shape == (3,)
    assert e[0] > e[1] > 0.0 and e[2] == 0.0


def test_grid_reproduces_emitted_power():
    ls = default_source()
    grid = build_aperture_grid(ls, 64)
    assert grid.discrete_power(ls.eta) == pytest.approx(ls.P0, rel=5e-3)
    finer = build_aperture_grid(ls, 128)
    assert abs(finer.discrete_power(ls.eta) - ls.P0) <= abs(
        grid.discrete_power(ls.eta) - ls.P0
    )


def test_grid_covers_disk_area():
    ls = default_source()
    grid = build_aperture_grid(ls, 64)
    disk = math.pi * ls.r_a**2
    assert float(np.sum(grid.weight)) == pytest.approx(disk, rel=1e-4)
    assert np.all(grid.weight > 0.0)


def test_grid_nodes_strictly_inside_disk():
    ls = default_source()
    grid = build_aperture_grid(ls, 64)
    r2 = grid.x**2 + grid.y**2
    assert np.all(r2 < ls.r_a**2)
    assert np.all(grid.e0 > 0.0)


def test_grid_resolution_floor():
    with pytest.raises(ValidationError, match=">= 8"):
        build_aperture_grid(default_source(), 4)


def test_grid_flags_waist_undersampling():
    # A waist of w0 = r_a/5 concentrates the power in a few cells of a
    # res-8 grid; the power check must reject the grid.
    tight = LaserSource(P0=1000.0, w0=0.01, r_a=0.05, wavelength=1064e-9)
    with pytest.raises(ResolutionError, match="reproduces only"):
        build_aperture_grid(tight, 8)


def test_grid_arrays_are_read_only():
    grid = build_aperture_grid(default_source(), 16)
    with pytest.raises(ValueError):
        grid.x[0] = 1.0


def test_lattice_holds_the_interior_nodes():
    grid = build_aperture_grid(default_source(), 40)
    n = grid.lattice_nodes
    i = np.searchsorted(grid.axis, grid.x[:n])
    j = np.searchsorted(grid.axis, grid.y[:n])
    assert np.array_equal(grid.axis[i], grid.x[:n]) and np.array_equal(grid.axis[j], grid.y[:n])
    assert np.array_equal(grid.lattice[i, j], grid.weight[:n] * grid.e0[:n])
    assert np.count_nonzero(grid.lattice) == n
    assert grid.lattice.shape == (grid.axis.size, grid.axis.size)

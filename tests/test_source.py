"""Tests for the truncated-Gaussian aperture and its discretization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from moonbeam import source
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


def test_source_refuses_a_supplied_zeta():
    with pytest.raises(TypeError, match="zeta"):
        default_source(zeta=1.0)
    wide = replace(default_source(), r_a=0.25)
    assert wide.zeta == default_source(r_a=0.25).zeta


def test_truncation_normalization_wide_aperture_limit():
    ls = default_source(r_a=0.25)  # r_a = 5*w0: truncation negligible
    assert ls.zeta == pytest.approx(1.0, abs=1e-12)


def test_peak_amplitude_and_rayleigh_range():
    ls = default_source()
    assert ls.peak_amplitude == pytest.approx(PEAK_AMPLITUDE, rel=1e-11)
    assert ls.rayleigh_range == pytest.approx(RAYLEIGH_RANGE, rel=1e-11)


@pytest.mark.parametrize(
    "field,value",
    [("P0", 0.0), ("w0", -0.05), ("r_a", 0.0), ("wavelength", 0.0), ("eta", -377.0),
     ("P0", math.nan), ("w0", math.nan), ("wavelength", math.nan)],
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


def test_grid_resolution_cap_is_refused_before_the_build():
    with pytest.raises(ResolutionError, match=r"resolution 4097 exceeds .* 1 GiB"):
        build_aperture_grid(default_source(), 4097)


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


#: Agreement of the lattice's outer product amp[i] * amp[j] with the
#: nodes' weight * e0, in units of eps * |weight * e0|. The two round
#: exp(-(x^2 + y^2)/w0^2) differently, as one exponential or as a
#: product of two, so they cannot agree exactly.
OUTER_PRODUCT_ULPS = 4


@pytest.mark.parametrize("res", [40, 68, 70, 74])
def test_spans_hold_the_interior_nodes(res):
    # At 68, 70 and 74 the interior mask is not mirror-symmetric in
    # floating point; each column's interior rows are still one run.
    grid = build_aperture_grid(default_source(), res)
    lo, hi = grid.spans
    rows = np.arange(grid.axis.size)[:, None]
    i, j = np.nonzero((lo <= rows) & (rows < hi))
    n = grid.lattice_nodes
    assert i.size == n
    assert np.array_equal(grid.axis[i], grid.x[:n]) and np.array_equal(grid.axis[j], grid.y[:n])
    we = grid.weight[:n] * grid.e0[:n]
    eps = np.finfo(float).eps
    assert np.all(np.abs(grid.amp[i] * grid.amp[j] - we) <= OUTER_PRODUCT_ULPS * eps * we)
    assert grid.amp.shape == grid.axis.shape and grid.spans.shape == (2, grid.axis.size)


def subcell_rim_cells(ls, res):
    """Rim cells by the (rim, 32*32) subcell coordinate arrays: counts
    times the subcell area, and centroids as sums over covered subcells."""
    ra, cell, sub = ls.r_a, 2.0 * ls.r_a / res, 32
    centers = (np.arange(res) + 0.5) * cell - ra
    cx, cy = (a.ravel() for a in np.meshgrid(centers, centers, indexing="ij"))
    ax, ay, half = np.abs(cx), np.abs(cy), 0.5 * cell
    far2 = (ax + half) ** 2 + (ay + half) ** 2
    near2 = np.maximum(ax - half, 0.0) ** 2 + np.maximum(ay - half, 0.0) ** 2
    rim = (far2 >= ra**2) & (near2 < ra**2)
    off = ((np.arange(sub) + 0.5) / sub - 0.5) * cell
    ox, oy = np.meshgrid(off, off, indexing="ij")
    sx = cx[rim][:, None] + ox.ravel()[None, :]
    sy = cy[rim][:, None] + oy.ravel()[None, :]
    hit = (sx * sx + sy * sy) < ra**2
    counts = hit.sum(axis=1)
    keep = counts > 0
    x = np.where(hit, sx, 0.0).sum(axis=1)[keep] / counts[keep]
    y = np.where(hit, sy, 0.0).sum(axis=1)[keep] / counts[keep]
    return x, y, counts[keep] * (cell / sub) ** 2


@pytest.mark.parametrize("res", sorted({*range(33, 305, 17), 64, 65, 168, 304}))
def test_rim_cells_match_the_subcell_sums(res):
    ls = default_source()
    grid = build_aperture_grid(ls, res)
    x, y, w = subcell_rim_cells(ls, res)
    n = grid.lattice_nodes
    assert np.array_equal(grid.weight[n:], w)
    ulp = np.spacing(ls.r_a)
    assert np.max(np.abs(grid.x[n:] - x)) <= 4 * ulp
    assert np.max(np.abs(grid.y[n:] - y)) <= 4 * ulp


@pytest.fixture
def held(monkeypatch):
    """An empty set of held grids for the test, the process's own restored after it."""
    monkeypatch.setattr(source, "_HELD", {})
    return source._HELD


def test_equal_requests_return_the_held_grid(held):
    grid = build_aperture_grid(default_source(), 64)
    assert build_aperture_grid(default_source(), 64) is grid
    assert build_aperture_grid(default_source(), np.int64(64)) is grid
    others = [
        build_aperture_grid(default_source(wavelength=532e-9), 64),
        build_aperture_grid(default_source(eta=376.0), 64),
        build_aperture_grid(default_source(), 65),
    ]
    assert all(other is not grid for other in others)
    assert list(held) == [(default_source(), 64), (default_source(wavelength=532e-9), 64),
                          (default_source(eta=376.0), 64), (default_source(), 65)]


def test_refusals_are_raised_on_every_call_and_never_held(held):
    tight = LaserSource(P0=1000.0, w0=0.01, r_a=0.05, wavelength=1064e-9)
    for _ in range(2):
        with pytest.raises(ValidationError, match=">= 8"):
            build_aperture_grid(default_source(), 7)
        with pytest.raises(ResolutionError, match="4097 exceeds"):
            build_aperture_grid(default_source(), 4097)
        with pytest.raises(ResolutionError, match="reproduces only"):
            build_aperture_grid(tight, 8)
    assert held == {}


def test_least_recently_used_grids_leave_the_node_budget(held, monkeypatch):
    ls = default_source()
    nodes = {res: build_aperture_grid(ls, res).x.size for res in (16, 20, 24, 32)}
    assert nodes[16] < nodes[20] < nodes[24] < nodes[32]
    held.clear()
    monkeypatch.setattr(source, "_HELD_NODES", nodes[16] + nodes[24])
    g16, g24 = build_aperture_grid(ls, 16), build_aperture_grid(ls, 24)
    assert build_aperture_grid(ls, 16) is g16  # 24 is now the least recently used
    g20 = build_aperture_grid(ls, 20)
    assert list(held) == [(ls, 16), (ls, 20)]
    assert build_aperture_grid(ls, 16) is g16 and build_aperture_grid(ls, 20) is g20
    again = build_aperture_grid(ls, 24)  # 16 and then 20 make room for it
    assert again is not g24 and np.array_equal(again.x, g24.x)
    assert list(held) == [(ls, 24)]

    # A grid over the whole budget is built on each call and evicts nothing.
    big = build_aperture_grid(ls, 32)
    assert build_aperture_grid(ls, 32) is not big
    assert list(held) == [(ls, 24)] and build_aperture_grid(ls, 24) is again


def test_derived_tables_are_read_only():
    grid = build_aperture_grid(default_source(), 64)
    tables = [*grid._distinct_y, *grid._separable[:-1]]
    assert len(tables) == 7 and all(isinstance(t, np.ndarray) for t in tables)
    assert not any(t.flags.writeable for t in tables)
    with pytest.raises(ValueError):
        grid._distinct_y[1][0] = 0

"""Tests for the element-sum diffraction engine against analytic oracles."""

import cmath
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moonbeam.diffraction import (
    compute_irradiance_map,
    field_at_point,
    field_at_points,
    field_on_grid,
    free_space_gaussian_irradiance,
    gaussian_beam_radius,
    irradiance_at_point,
    required_aperture_resolution,
)
from moonbeam.dust import DustModel
from moonbeam import diffraction, phase
from moonbeam.errors import ResolutionError, TerrainError, ValidationError
from moonbeam.geometry import PathPoint, ScenarioGeometry, endpoint_heights, ray_heights
from moonbeam.phase import column_density
from moonbeam.scenario import scenario_from_mapping
from moonbeam.source import ApertureGrid, LaserSource, build_aperture_grid

# Analytic constants of the default beam (P0=1000 W, w0=0.05 m,
# lambda=1064 nm), frozen from the Gaussian-beam closed forms.
ON_AXIS_IRRADIANCE_W_M2 = 254647.908947   # 2*P0/(pi*w0^2)
BEAM_RADIUS_50KM = 0.342352605827         # w0*sqrt(1+(z/z_R)^2) [m]


def wide_source():
    # r_a = 3*w0 leaves 1.5e-8 of the power outside the window, so the
    # analytic untruncated profile is a valid 1% oracle.
    return LaserSource(P0=1000.0, w0=0.05, r_a=0.15, wavelength=1064e-9)


def high_geometry(D):
    # high enough that no test ray can graze the ground
    return ScenarioGeometry(D=D, h0=100.0, hp=100.0)


def test_required_resolution_floor_and_growth():
    ls = wide_source()
    assert required_aperture_resolution(ls, 5.0e4, 0.3) == 64
    near = required_aperture_resolution(ls, 100.0, 0.3)
    far = required_aperture_resolution(ls, 1000.0, 0.3)
    assert near > far >= 64
    wider = required_aperture_resolution(ls, 100.0, 3.0)
    assert wider > near
    with pytest.raises(ValidationError, match="plane distance"):
        required_aperture_resolution(ls, 0.0, 0.3)


def test_free_space_oracle_constants():
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    assert free_space_gaussian_irradiance(ls, 0.0, 0.0, 0.0) == pytest.approx(
        ON_AXIS_IRRADIANCE_W_M2, rel=1e-11
    )
    assert gaussian_beam_radius(ls, ls.rayleigh_range) == pytest.approx(
        ls.w0 * math.sqrt(2.0), rel=1e-12
    )
    assert gaussian_beam_radius(ls, 50000.0) == pytest.approx(
        BEAM_RADIUS_50KM, rel=1e-11
    )
    with pytest.raises(ValidationError, match="z >= 0"):
        free_space_gaussian_irradiance(ls, 0.0, 0.0, -1.0)


def test_on_axis_field_matches_analytic_gaussian():
    ls = wide_source()
    grid = build_aperture_grid(ls, 128)
    z = 2.0 * ls.rayleigh_range
    geom = high_geometry(z)
    e = field_at_point(grid, PathPoint.destination(0.0, 0.0, z), geom, None, ls.wavelength)
    engine = irradiance_at_point(e, ls.eta)
    oracle = free_space_gaussian_irradiance(ls, 0.0, 0.0, z)
    assert abs(engine - oracle) / oracle < 0.01


def test_transverse_profile_matches_analytic_gaussian():
    ls = wide_source()
    grid = build_aperture_grid(ls, 128)
    z = 4.0 * ls.rayleigh_range
    geom = high_geometry(z)
    w = float(gaussian_beam_radius(ls, z))
    ys = np.array([0.0, 0.5 * w, 1.0 * w])
    e = field_at_points(grid, geom, None, ls.wavelength, np.zeros(3), ys, np.full(3, z))
    engine = irradiance_at_point(e, ls.eta)
    oracle = free_space_gaussian_irradiance(ls, 0.0, ys, z)
    np.testing.assert_allclose(engine, oracle, rtol=0.01)


def test_field_broadcasting_and_scalar_consistency():
    ls = wide_source()
    grid = build_aperture_grid(ls, 64)
    geom = high_geometry(5000.0)
    xs = np.array([[0.0, 0.1], [0.2, 0.3]])
    e = field_at_points(grid, geom, None, ls.wavelength, xs, 0.0, 5000.0)
    assert e.shape == (2, 2)
    single = field_at_point(
        grid, PathPoint.destination(0.2, 0.0, 5000.0), geom, None, ls.wavelength
    )
    assert single == e[1, 0]


def test_field_x_parity():
    ls = wide_source()
    grid = build_aperture_grid(ls, 64)
    geom = ScenarioGeometry(D=5000.0, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=5e-14)
    x = np.array([0.13, -0.13])
    e = field_at_points(grid, geom, dust, ls.wavelength, x, np.full(2, 0.07), np.full(2, 5000.0))
    assert abs(e[0] - e[1]) / abs(e[0]) < 1e-9


def test_zero_cross_section_matches_vacuum_amplitude():
    # C_ext = 0 keeps the full amplitude; only the real index differs
    # from the vacuum path. On axis (constructive sum) the amplitude
    # effect is second order in the tiny phase excess. At y = 0.1 m
    # the point sits near an interference minimum, where cancellation
    # amplifies the node-to-node phase spread into a few 1e-4 of
    # relative amplitude; allow that much there.
    ls = wide_source()
    grid = build_aperture_grid(ls, 64)
    geom = ScenarioGeometry(D=5000.0, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=0.0)
    pts = (np.zeros(2), np.array([0.0, 0.1]), np.full(2, 5000.0))
    dusty = np.abs(field_at_points(grid, geom, dust, ls.wavelength, *pts))
    clear = np.abs(field_at_points(grid, geom, None, ls.wavelength, *pts))
    assert abs(dusty[0] - clear[0]) / clear[0] < 1e-5
    assert abs(dusty[1] - clear[1]) / clear[1] < 2e-3


def test_extinction_attenuates_field():
    ls = wide_source()
    grid = build_aperture_grid(ls, 64)
    geom = ScenarioGeometry(D=5000.0, h0=2.0, hp=2.0)
    weak = DustModel(d_p=175e-9, C_ext=1e-14)
    strong = DustModel(d_p=175e-9, C_ext=1e-13)
    pt = (0.0, 0.0, 5000.0)
    i_clear = irradiance_at_point(field_at_points(grid, geom, None, ls.wavelength, *pt), ls.eta)
    i_weak = irradiance_at_point(field_at_points(grid, geom, weak, ls.wavelength, *pt), ls.eta)
    i_strong = irradiance_at_point(field_at_points(grid, geom, strong, ls.wavelength, *pt), ls.eta)
    assert i_clear > i_weak > i_strong > 0.0


#: Agreement required between the engine and the per-ray reference, as a
#: fraction of the sum of |contribution| over a point's rays. Both sides
#: see bit-identical endpoint heights, so they differ only by rounding:
#: R and the vacuum phase (<= ~5e3 rad at these offsets and distances)
#: to a few ulp, and the summation order. That is ~1e-12; 1e-10 leaves
#: margin while any column error above ~1e-10 relative still shows,
#: since C_ext * column is of order one here.
REFERENCE_FIELD_RTOL = 1e-10


@st.composite
def dusty_rays(draw):
    """Small dusty link: aperture nodes on a few shared rows (as on the
    lattice), destination points anywhere or at a height within a tiny
    offset of a node row's height (near-equal endpoint heights)."""
    h0 = draw(st.floats(1.2, 12.0))
    hp = h0 + draw(st.floats(-0.5, 0.5))
    D = draw(st.floats(200.0, 5000.0))
    geom = ScenarioGeometry(D=D, h0=h0, hp=hp)
    dust = DustModel(
        d_p=175e-9,
        C_ext=draw(st.floats(1e-13, 1e-12)),
        h_floor=draw(st.sampled_from([1e-3, 1.0, 2.0])),
    )
    rows = draw(st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=3, unique=True))
    cols = draw(st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=3, unique=True))
    gx, gy = (a.ravel() for a in np.meshgrid(cols, rows))
    n = gx.size
    grid = ApertureGrid(
        x=gx, y=gy,
        weight=np.array(draw(st.lists(st.floats(1e-4, 1e-3), min_size=n, max_size=n))),
        e0=np.array(draw(st.lists(st.floats(1e3, 1.5e4), min_size=n, max_size=n))),
        resolution=3,
    )
    cos_t = math.cos(geom.theta)
    xs, ys, zs = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        z = D * draw(st.floats(0.5, 1.0))
        if draw(st.booleans()):
            h_axis = h0 + (hp - h0) * (z / D)
            dh = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-3]))
            row = draw(st.sampled_from(rows))
            y = (row * cos_t + h0 + draw(st.sampled_from([-1.0, 1.0])) * dh - h_axis) / cos_t
            assume(abs(y) <= 1.0)
        else:
            y = draw(st.floats(-0.5, 0.5))
        xs.append(draw(st.floats(-0.5, 0.5)))
        ys.append(y)
        zs.append(z)
    return grid, geom, dust, np.array(xs), np.array(ys), np.array(zs)


def reference_field(grid, geom, dust, wavelength, xs, ys, zs):
    """Per-ray sum, each ray's column from phase.column_density.

    Returns the field and, per point, the sum of |contribution|.
    """
    k = 2.0 * math.pi / wavelength
    kappa = k * dust.polarizability_volume
    fields, scales = [], []
    for x, y, z in zip(xs, ys, zs):
        dst = PathPoint.destination(x, y, z)
        total, scale = 0j, 0.0
        for gx, gy, w, e0 in zip(grid.x, grid.y, grid.weight, grid.e0):
            src = PathPoint.source(gx, gy)
            R = math.dist((gx, gy, 0.0), (x, y, z))
            h_src, h_dst = endpoint_heights(src, dst, geom)
            cn = column_density(dust, h_src, h_dst, R)
            rho2 = (x - gx) ** 2 + (y - gy) ** 2
            amp = w * e0 / (wavelength * R) * math.exp(-dust.C_ext * cn)
            total += amp * cmath.exp(-1j * (k * rho2 / (R + z) + kappa * cn))
            scale += amp
        fields.append(total)
        scales.append(scale)
    return np.array(fields), np.array(scales)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dusty_rays())
def test_dusty_field_matches_per_ray_column_reference(case):
    grid, geom, dust, xs, ys, zs = case
    e = field_at_points(grid, geom, dust, 1064e-9, xs, ys, zs)
    ref, scale = reference_field(grid, geom, dust, 1064e-9, xs, ys, zs)
    assert np.all(np.abs(e - ref) <= REFERENCE_FIELD_RTOL * scale)


def test_terrain_error_for_grazing_ray():
    ls = wide_source()
    grid = build_aperture_grid(ls, 64)
    geom = ScenarioGeometry(D=5000.0, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=0.0)
    with pytest.raises(TerrainError, match="touches the ground"):
        field_at_points(grid, geom, dust, ls.wavelength, 0.0, -2.5, 5000.0)


def test_destination_plane_must_be_forward():
    ls = wide_source()
    grid = build_aperture_grid(ls, 64)
    geom = high_geometry(5000.0)
    with pytest.raises(ValidationError, match="z > 0"):
        field_at_points(grid, geom, None, ls.wavelength, 0.0, 0.0, 0.0)


def test_irradiance_at_point_forms():
    assert irradiance_at_point(3.0 + 4.0j, 377.0) == pytest.approx(25.0 / 754.0, rel=1e-15)
    arr = irradiance_at_point(np.array([1.0 + 0.0j, 0.0 + 2.0j]), 2.0)
    np.testing.assert_allclose(arr, [0.25, 1.0], rtol=1e-15)


def default_scenario(**cfg):
    base = {"numerics.aperture_resolution": 64}
    base.update(cfg)
    return scenario_from_mapping(base)


def test_map_resolution_limit_is_checked_before_any_grid(monkeypatch):
    def unexpected(*args):
        raise AssertionError("aperture grid built for a refused map")

    monkeypatch.setattr(diffraction, "build_aperture_grid", unexpected)
    with pytest.raises(ValidationError, match="<= 4097, got 4098"):
        compute_irradiance_map(default_scenario(), resolution=4098)


def test_map_geometry_and_metadata():
    s = default_scenario()
    imap = compute_irradiance_map(s, resolution=33)
    assert imap.values.shape == (33, 33)
    assert imap.extent == (0.75, 0.75)
    assert imap.distance == 5000.0
    np.testing.assert_allclose(imap.xs, -imap.xs[::-1], atol=0.0)
    assert imap.meta["aperture_resolution"] == 64
    assert imap.meta["dust_enabled"] is False
    assert imap.meta["config_hash"] == s.config_hash()


def test_map_x_parity():
    s = default_scenario()
    imap = compute_irradiance_map(s, resolution=33)
    mirrored = imap.values[:, ::-1]
    scale = float(imap.values.max())
    assert np.max(np.abs(imap.values - mirrored)) / scale < 1e-9


#: Agreement of the mirrored map with the full-grid irradiance, as a
#: fraction of the map maximum. Only the contraction's row count differs
#: between the two, which leaves rounding near 1e-15.
MIRRORED_MAP_RTOL = 1e-13


@pytest.mark.parametrize("resolution", [64, 65, 129])
@pytest.mark.parametrize("dusty", [False, True])
def test_mirrored_map_equals_the_full_grid(resolution, dusty):
    dust = {"dust.enabled": True, "dust.cext_source": "explicit", "dust.cext": 5.26e-14}
    s = default_scenario(**{"geometry.D": 20000.0, **(dust if dusty else {})})
    imap = compute_irradiance_map(s, resolution=resolution)
    grid = build_aperture_grid(s.laser, imap.meta["aperture_resolution"])
    full = diffraction.irradiance_on_grid(s, grid, imap.xs, imap.ys).T
    scale = float(imap.values.max())
    assert np.max(np.abs(imap.values - full)) <= MIRRORED_MAP_RTOL * scale
    assert np.array_equal(imap.values, imap.values[:, ::-1])


@pytest.mark.parametrize("extent", [math.nan, math.inf])
def test_map_extent_must_be_finite(extent):
    with pytest.raises(ValidationError, match="extent must be positive and finite"):
        compute_irradiance_map(default_scenario(), extent=extent)


def test_map_validation():
    s = default_scenario()
    with pytest.raises(ValidationError, match="extent must be positive"):
        compute_irradiance_map(s, extent=-1.0)
    with pytest.raises(ValidationError, match="does not cover"):
        compute_irradiance_map(s, extent=0.1)
    with pytest.raises(ValidationError, match="resolution must be >= 32"):
        compute_irradiance_map(s, resolution=16)


#: Agreement required between field_on_grid and the direct sum on the
#: same nodes, as a fraction of the beam's max |E| (over the drawn points
#: and the beam axis). The separable kernel keeps the cross factor G to
#: first order in dx^2; its dropped terms are bounded per pair by
#: _FRESNEL_REMAINDER_MAX = 1e-6 of the pair's magnitude, and grids
#: beyond that are refused. Their sum scales with the beam, not with the
#: local field: at a dark point alone the error can reach ~1e-8 of |E|
#: there.
GRID_FIELD_RTOL = 1e-8


@st.composite
def grid_links(draw):
    """Link, aperture lattice and destination axes inside the shift window."""
    geom = ScenarioGeometry(
        D=draw(st.floats(1000.0, 50000.0)),
        h0=draw(st.floats(1.0, 20.0)),
        hp=draw(st.floats(1.0, 20.0)),
    )
    dust = None
    if draw(st.booleans()):
        dust = DustModel(d_p=175e-9, C_ext=draw(st.floats(0.0, 3e-13)))
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    grid = build_aperture_grid(ls, draw(st.integers(64, 128)))
    half = 0.75  # three half-extents of the default 0.5 m panel
    axis = st.lists(st.floats(-half, half), min_size=1, max_size=6)
    return grid, geom, dust, ls.wavelength, np.array(draw(axis)), np.array(draw(axis))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=grid_links())
def test_grid_field_matches_direct_sum(case):
    grid, geom, dust, wavelength, xs, ys = case
    e = field_on_grid(grid, geom, dust, wavelength, xs, ys, geom.D)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    ref = field_at_points(grid, geom, dust, wavelength, xg, yg, geom.D)
    on_axis = field_at_points(grid, geom, dust, wavelength, 0.0, 0.0, geom.D)
    assert e.shape == (xs.size, ys.size)
    scale = max(np.max(np.abs(ref)), abs(on_axis))
    assert np.max(np.abs(e - ref)) <= GRID_FIELD_RTOL * scale


def count_direct_points(monkeypatch):
    """Record the point count of every field_at_points call from diffraction."""
    points = []
    direct = diffraction.field_at_points

    def counting(grid_, geom_, dust_, wavelength, xs, ys, zs):
        points.append(np.broadcast(xs, ys, zs).size)
        return direct(grid_, geom_, dust_, wavelength, xs, ys, zs)

    monkeypatch.setattr(diffraction, "field_at_points", counting)
    return points


@pytest.mark.parametrize("dusty", [False, True], ids=["clear", "dust"])
def test_grid_field_beyond_the_bound_is_refused_at_once(dusty, monkeypatch):
    # At 300 m the shift window's corner rays leave a cross-term bound
    # near 1e-3, far above the separable limit; no sum of any node runs.
    ls = wide_source()
    grid = build_aperture_grid(ls, 64)
    geom = ScenarioGeometry(D=300.0, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=5e-14) if dusty else None
    points = count_direct_points(monkeypatch)
    with pytest.raises(ResolutionError) as err:
        field_on_grid(grid, geom, dust, ls.wavelength, np.linspace(0.0, 0.75, 5),
                      np.linspace(-0.75, 0.75, 7), 300.0)
    message = str(err.value)
    assert "z = 300 m" in message
    assert "cross-term bound" in message and "exceeds 1e-06" in message
    assert points == []


@pytest.mark.parametrize("D, dusty, half", [(800.0, True, 0.75), (220.0, False, 0.25)],
                         ids=["800m-dust-window", "220m-clear-panel"])
def test_short_range_grid_is_separable(D, dusty, half, monkeypatch):
    # Near the kernel's floors (754 m on the shift window, 204 m on the
    # panel) the grid is still summed separably: one corner point is
    # summed directly, and the field matches the direct sum.
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    grid = build_aperture_grid(ls, required_aperture_resolution(ls, D, math.hypot(half, half)))
    geom = ScenarioGeometry(D=D, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=5.257e-14) if dusty else None
    xs, ys = np.linspace(0.0, half, 4), np.linspace(-half, half, 5)  # (0, 0) included
    points = count_direct_points(monkeypatch)
    e = field_on_grid(grid, geom, dust, ls.wavelength, xs, ys, D)
    assert points == [1]
    monkeypatch.undo()
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    ref = field_at_points(grid, geom, dust, ls.wavelength, xg, yg, D)
    assert np.max(np.abs(e - ref)) <= GRID_FIELD_RTOL * np.max(np.abs(ref))


@pytest.mark.parametrize("res", [68, 70, 74])
@pytest.mark.parametrize("dusty", [False, True], ids=["clear", "dust"])
def test_grid_field_on_an_asymmetric_interior_mask(res, dusty):
    # At these resolutions the interior mask is not mirror-symmetric in
    # floating point: some column's run of rows is off centre by one.
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    grid = build_aperture_grid(ls, res)
    lo, hi = grid.spans
    assert np.any(lo + hi != grid.axis.size)
    geom = ScenarioGeometry(D=5000.0, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=5.257e-14) if dusty else None
    xs, ys = np.linspace(0.0, 0.75, 6), np.linspace(-0.75, 0.75, 11)  # the shift window
    e = field_on_grid(grid, geom, dust, ls.wavelength, xs, ys, 5000.0)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    ref = field_at_points(grid, geom, dust, ls.wavelength, xg, yg, 5000.0)
    assert np.max(np.abs(e - ref)) <= GRID_FIELD_RTOL * np.max(np.abs(ref))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z=st.floats(100.0, 1e5), u=st.floats(0.0, 2.25), v=st.floats(0.0, 2.25),
       col=st.floats(0.0, 1e-2), angle=st.floats(0.0, math.pi / 2))
def test_cross_term_bound_covers_the_exact_cross_factor(z, u, v, col, angle):
    # G = K/(X*Y) in closed form, each difference of lengths without
    # cancellation: R - R_y - R_x + z by the identity below, R - R_y as
    # u/(R + R_y), and G - 1 from expm1 of ln G.
    k = 2.0 * math.pi / 1064e-9
    cn = col * cmath.exp(1j * angle)  # c*nbar: extinction and phase parts >= 0
    rx, ry, r = math.sqrt(z * z + u), math.sqrt(z * z + v), math.sqrt(z * z + u + v)
    excess = -v * (u / (r + ry) + u / (rx + z)) / ((r + rx) * (ry + z))
    ln_g = -1j * k * excess - cn * u / (r + ry) - 0.5 * math.log1p(u / (ry * ry))
    re, im = ln_g.real, ln_g.imag
    g_minus_1 = complex(math.expm1(re) * math.cos(im) - 2.0 * math.sin(im / 2.0) ** 2,
                        math.exp(re) * math.sin(im))
    l1 = 0.5 * (1j * k * (v / (ry + z)) / (z * ry) - cn / ry - 1.0 / (ry * ry))
    assert abs(g_minus_1 - l1 * u) <= diffraction._cross_term_bound(k, z, u, v, col) + 1e-15


def test_refused_dusty_grid_evaluates_only_the_lowest_endpoint_pair(monkeypatch):
    # The bound's dust term comes from the lowest source and destination
    # heights alone, so a refused grid builds no density table.
    ls = wide_source()
    grid = build_aperture_grid(ls, 64)
    geom = ScenarioGeometry(D=300.0, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=5e-14)
    xs = np.linspace(0.0, 0.75, 5)
    ys = np.linspace(-0.75, 0.75, 7)
    calls = []

    def recording(dust_, h1, h2):
        calls.append((h1, h2))
        return phase.mean_density(dust_, h1, h2)

    monkeypatch.setattr(diffraction, "mean_density", recording)
    with pytest.raises(ResolutionError):
        field_on_grid(grid, geom, dust, ls.wavelength, xs, ys, 300.0)
    h_src, h_dst = ray_heights(geom, grid.y, ys, 300.0)
    assert calls == [(np.min(h_dst), np.min(h_src))]
    assert [np.shape(h) for pair in calls for h in pair] == [(), ()]


def row_block_cases():
    """(shape, grid, geometry, xs, ys, z) on the line, window and map shapes."""
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    near = build_aperture_grid(ls, 168)
    geom = ScenarioGeometry(D=5000.0, h0=12.0, hp=2.0)
    yield "line", near, geom, np.array([0.0]), np.linspace(-0.75, 0.75, 601), 5000.0
    yield "window", near, geom, np.linspace(0.0, 0.75, 41), np.linspace(-0.75, 0.75, 82), 5000.0
    far = build_aperture_grid(ls, 64)
    geom = ScenarioGeometry(D=20000.0, h0=2.0, hp=2.0)
    yield "map", far, geom, np.linspace(0.0, 0.75, 65), np.linspace(-0.75, 0.75, 129), 20000.0


@pytest.mark.parametrize("dusty", [False, True], ids=["clear", "dust"])
def test_grid_field_bits_do_not_depend_on_the_row_block(dusty, monkeypatch):
    dust = DustModel(d_p=175e-9, C_ext=5.257e-14) if dusty else None
    for shape, grid, geom, xs, ys, z in row_block_cases():
        fields = []
        for budget in (1, 2**62):  # one destination row per block; one block
            monkeypatch.setattr(diffraction, "_ROW_BLOCK_ELEMENTS", budget)
            fields.append(field_on_grid(grid, geom, dust, 1064e-9, xs, ys, z).tobytes())
        assert fields[0] == fields[1], shape


@pytest.mark.parametrize("dusty", [False, True], ids=["clear", "dust"])
@pytest.mark.parametrize("D", [5000.0, 50000.0], ids=["5km", "50km"])
def test_grid_field_bits_do_not_depend_on_the_other_points_of_the_call(dusty, D):
    # receiver._line_peak scans the centre line in several calls and
    # relies on each point getting the bits of the full 601-point call.
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    grid = build_aperture_grid(ls, required_aperture_resolution(ls, D, math.hypot(0.75, 0.75)))
    geom = ScenarioGeometry(D=D, h0=12.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=5.257e-14) if dusty else None
    ys = np.linspace(-0.75, 0.75, 601)
    full = field_on_grid(grid, geom, dust, 1064e-9, [0.0], ys, D)
    for subset in (np.arange(0, 601, 7), np.array([3, 4, 150, 298, 301, 557, 600]), [300]):
        part = field_on_grid(grid, geom, dust, 1064e-9, [0.0], ys[subset], D)
        assert part.tobytes() == full[:, subset].tobytes()


def test_contraction_bits_do_not_depend_on_the_blas_thread_count():
    # At k = 12000 a single OpenBLAS dot would be split across threads;
    # _contract's fixed slices keep each dot on one thread.
    code = (
        "import hashlib, numpy as np\n"
        "from moonbeam.diffraction import _contract\n"
        "rng = np.random.default_rng(7)\n"
        "def draw(n):\n"
        "    return rng.standard_normal((n, 12000)) + 1j * rng.standard_normal((n, 12000))\n"
        "left, right = draw(3), draw(4)\n"
        "e = _contract(left, right)\n"
        "r = _contract(left.real.copy(), right.real.copy())\n"
        "print(hashlib.sha256(e.tobytes() + r.tobytes()).hexdigest())\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(diffraction.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
            timeout=120,
        ).stdout)
    assert len(outputs[0]) == 65
    assert outputs[0] == outputs[1]


#: Agreement required between field_on_grid and the direct sum on the rim
#: nodes alone, as a fraction of the rim's sum of pair magnitudes
#: sum(weight * e0) / (lambda * z). It is ten times below the per-pair
#: cross-term limit _FRESNEL_REMAINDER_MAX. A wrong first-order cross
#: term of the rim shows far above it: at the 1 km window corner it is
#: ~6e-4 of a pair (mostly the phase k*dx^2*dy^2/4z^3), against a
#: remainder below 1e-6 that also partly cancels over the ring of rim
#: nodes.
RIM_FIELD_RTOL = 1e-7


def rim_only(grid):
    """The rim nodes of a built grid, with empty lattice spans."""
    rim = slice(grid.lattice_nodes, None)
    return ApertureGrid(
        x=grid.x[rim], y=grid.y[rim], weight=grid.weight[rim], e0=grid.e0[rim],
        resolution=grid.resolution, axis=grid.axis, amp=grid.amp,
        spans=np.zeros_like(grid.spans), lattice_nodes=0,
    )


@pytest.mark.parametrize("line", [True, False], ids=["line", "window"])
@pytest.mark.parametrize("dusty", [False, True], ids=["clear", "dust"])
@pytest.mark.parametrize("D", [1000.0, 5000.0])
def test_rim_field_matches_direct_sum(D, dusty, line):
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    half = 0.75  # the shift window of the default 0.5 m panel
    grid = rim_only(
        build_aperture_grid(ls, required_aperture_resolution(ls, D, math.hypot(half, half)))
    )
    geom = ScenarioGeometry(D=D, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=5.257e-14) if dusty else None
    xs = np.array([0.0]) if line else np.linspace(0.0, half, 6)
    ys = np.linspace(-half, half, 41 if line else 11)
    e = field_on_grid(grid, geom, dust, ls.wavelength, xs, ys, D)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    ref = field_at_points(grid, geom, dust, ls.wavelength, xg, yg, D)
    scale = np.sum(grid.weight * grid.e0) / (ls.wavelength * D)
    assert np.max(np.abs(e - ref)) <= RIM_FIELD_RTOL * scale


def test_separable_grid_sums_only_one_point_directly(monkeypatch):
    # A near-range shift window: res 168, 41 x 82 points, dust at 5 km.
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    grid = build_aperture_grid(ls, 168)
    geom = ScenarioGeometry(D=5000.0, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=5.257e-14)
    points = count_direct_points(monkeypatch)
    e = field_on_grid(
        grid, geom, dust, ls.wavelength, np.linspace(0.0, 0.75, 41), np.linspace(-0.75, 0.75, 82),
        5000.0,
    )
    assert e.shape == (41, 82)
    assert points == [1]


#: Cross-sections a calibration probes: 0, the 175 nm Rayleigh probe,
#: and near both benchmark anchors' roots [m^2].
PROBED_C_EXT = (0.0, 7.33e-16, 5.2578e-14, 2.6957e-13)


def hexes(values):
    return [float(v).hex() for v in np.ravel(np.asarray(values).view(float))]


def count_factor_builds(monkeypatch):
    """Record each build of C_ext-free factors by field_on_grid or field_at_points."""
    builds = []
    for name in ("_left_factors", "_point_factors"):
        fn = getattr(diffraction, name)

        def counting(*args, _name=name, _fn=fn):
            builds.append(_name)
            return _fn(*args)

        monkeypatch.setattr(diffraction, name, counting)
    return builds


def held_case(**changes):
    """(grid, geometry, dust without C_ext, wavelength, xs, ys, z): the
    5 km calibration anchor's panel grid and an order-16 panel set."""
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    case = dict(grid=build_aperture_grid(ls, 64), geom=ScenarioGeometry(D=5000.0, h0=12.0, hp=2.0),
                dust=DustModel(d_p=175e-9, C_ext=0.0), wavelength=1064e-9,
                xs=np.linspace(0.03, 0.24, 8), ys=np.linspace(-0.24, 0.24, 16), z=5000.0)
    case.update(changes)
    return case


def both_fields(case, c_ext):
    """field_on_grid and field_at_points on the case at C_ext = c_ext."""
    dust = replace(case["dust"], C_ext=c_ext)
    args = case["grid"], case["geom"], dust, case["wavelength"]
    xg, yg = np.meshgrid(case["xs"][::3], case["ys"][::5], indexing="ij")
    return (field_on_grid(*args, case["xs"], case["ys"], case["z"]),
            field_at_points(*args, xg, yg, case["z"]))


@pytest.mark.parametrize("c_ext", PROBED_C_EXT)
def test_held_factors_give_the_unheld_bits(c_ext, monkeypatch):
    case = held_case()
    unheld = [hexes(f) for f in both_fields(case, c_ext)]
    builds = count_factor_builds(monkeypatch)
    with diffraction.holding():
        first, repeat = both_fields(case, c_ext), both_fields(case, c_ext)
    # One build each for the kernel, its corner check and the scattered points.
    assert sorted(builds) == ["_left_factors", "_point_factors", "_point_factors"]
    with diffraction.holding():  # held at another cross-section, served at this one
        both_fields(case, PROBED_C_EXT[(PROBED_C_EXT.index(c_ext) + 1) % 4])
        del builds[:]
        served = both_fields(case, c_ext)
    assert builds == []
    for fields in (first, repeat, served):
        assert [hexes(f) for f in fields] == unheld


def test_held_factors_serve_only_a_change_of_c_ext(monkeypatch):
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    others = {
        "h0": held_case(geom=ScenarioGeometry(D=5000.0, h0=11.0, hp=2.0)),
        "hp": held_case(geom=ScenarioGeometry(D=5000.0, h0=12.0, hp=3.0)),
        "d_p": held_case(dust=DustModel(d_p=250e-9, C_ext=0.0)),
        "wavelength": held_case(wavelength=1000e-9),
        "z": held_case(z=4000.0),
        "xs": held_case(xs=np.linspace(0.03, 0.25, 8)),
        "ys": held_case(ys=np.linspace(-0.25, 0.24, 16)),
        "grid": held_case(grid=build_aperture_grid(ls, 66)),
    }
    unheld = {name: [hexes(f) for f in both_fields(case, 2.6957e-13)]
              for name, case in others.items()}
    builds = count_factor_builds(monkeypatch)
    with diffraction.holding():
        both_fields(held_case(), 5.2578e-14)
        for name, case in others.items():
            del builds[:]
            assert [hexes(f) for f in both_fields(case, 2.6957e-13)] == unheld[name], name
            assert sorted(builds) == ["_left_factors", "_point_factors", "_point_factors"], name
            del builds[:]
            both_fields(case, 0.0)
            assert builds == [], name


def test_calls_past_the_budget_are_computed_unheld(monkeypatch):
    case, other = held_case(), held_case(z=4999.0)
    unheld = [hexes(f) for f in both_fields(case, 5.2578e-14)]
    other_unheld = [hexes(f) for f in both_fields(other, 0.0)]
    builds = count_factor_builds(monkeypatch)
    with diffraction.holding():
        both_fields(case, 0.0)
        held = dict(diffraction._held)
        assert len(held) == 3
        budget = sum(entry[1] for entry in held.values())
        # No more bytes fit: the same sets at another z are not held.
        monkeypatch.setattr(diffraction, "_HELD_BYTES", budget)
        del builds[:]
        for _ in range(2):
            assert [hexes(f) for f in both_fields(other, 0.0)] == other_unheld
        assert len(builds) == 6 and diffraction._held == held
        del builds[:]
        assert [hexes(f) for f in both_fields(case, 5.2578e-14)] == unheld
        assert builds == []


def test_nothing_stays_held_after_the_block():
    case = held_case()
    with diffraction.holding():
        both_fields(case, 0.0)
        assert len(diffraction._held) == 3
    assert diffraction._held is None
    with pytest.raises(TerrainError):
        with diffraction.holding():
            both_fields(case, 0.0)
            both_fields(held_case(geom=ScenarioGeometry(D=5000.0, h0=12.0, hp=0.2)), 0.0)
    assert diffraction._held is None
    both_fields(case, 0.0)
    assert diffraction._held is None

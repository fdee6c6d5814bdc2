"""Tests for the element-sum diffraction engine against analytic oracles."""

import cmath
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
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
from moonbeam import diffraction
from moonbeam.errors import ResolutionError, TerrainError, ValidationError
from moonbeam.geometry import PathPoint, ScenarioGeometry, endpoint_heights
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
#: and the beam axis). The first-order corrected Fresnel sum leaves
#: second-order terms, bounded per pair by _FRESNEL_REMAINDER_MAX = 1e-6
#: of its magnitude. Their sum scales with the beam, not with the local
#: field: at a dark point alone the error can reach ~1e-8 of |E| there.
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


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=grid_links())
def test_grid_field_matches_direct_sum(case, caplog):
    grid, geom, dust, wavelength, xs, ys = case
    caplog.clear()
    e = field_on_grid(grid, geom, dust, wavelength, xs, ys, geom.D)
    assert not caplog.records  # the separable path ran
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    ref = field_at_points(grid, geom, dust, wavelength, xg, yg, geom.D)
    on_axis = field_at_points(grid, geom, dust, wavelength, 0.0, 0.0, geom.D)
    assert e.shape == (xs.size, ys.size)
    scale = max(np.max(np.abs(ref)), abs(on_axis))
    assert np.max(np.abs(e - ref)) <= GRID_FIELD_RTOL * scale


@pytest.mark.parametrize("dusty", [False, True])
def test_grid_field_beyond_the_bound_is_the_direct_sum(dusty, caplog):
    # At 300 m the shift window's corner rays leave a remainder bound of
    # ~1e-3, far above the separable limit.
    ls = wide_source()
    grid = build_aperture_grid(ls, 64)
    geom = ScenarioGeometry(D=300.0, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=5e-14) if dusty else None
    xs = np.linspace(0.0, 0.75, 5)
    ys = np.linspace(-0.75, 0.75, 7)
    with caplog.at_level(logging.WARNING, logger="moonbeam"):
        e = field_on_grid(grid, geom, dust, ls.wavelength, xs, ys, 300.0)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    assert np.array_equal(e, field_at_points(grid, geom, dust, ls.wavelength, xg, yg, 300.0))
    [record] = caplog.records
    assert f"{grid.x.size * 35:.3g} pairs" in record.getMessage()
    assert "z = 300 m" in record.getMessage()


def test_grid_field_beyond_the_pair_limit_is_refused(monkeypatch):
    # The 300 m fallback above sums 35 points x ~3.2e3 nodes; with the
    # limit one pair below that, the sum is refused before it starts.
    ls = wide_source()
    grid = build_aperture_grid(ls, 64)
    geom = ScenarioGeometry(D=300.0, h0=2.0, hp=2.0)
    xs = np.linspace(0.0, 0.75, 5)
    ys = np.linspace(-0.75, 0.75, 7)
    pairs = grid.x.size * xs.size * ys.size
    monkeypatch.setattr(diffraction, "_DIRECT_PAIRS_MAX", pairs - 1)

    def no_sum(*args):
        raise AssertionError("the direct sum ran")

    monkeypatch.setattr(diffraction, "field_at_points", no_sum)
    with pytest.raises(ResolutionError) as err:
        field_on_grid(grid, geom, None, ls.wavelength, xs, ys, 300.0)
    message = str(err.value)
    assert f"{pairs:.3g} pairs" in message
    assert "z = 300 m" in message
    assert f"limit of {pairs - 1:.3g} pairs" in message


#: Agreement required between field_on_grid and the direct sum on the rim
#: nodes alone, as a fraction of the rim's sum of pair magnitudes
#: sum(weight * e0) / (lambda * z). It is ten times below the per-pair
#: remainder limit _FRESNEL_REMAINDER_MAX. A wrong first-order term of the
#: rim shows far above it: at the 1 km window corner the quartic phase is
#: ~1e-3 of a pair and the dust column's rho^2/2z term a few 1e-4, against
#: a second-order remainder below 1e-6 that also partly cancels over the
#: ring of rim nodes.
RIM_FIELD_RTOL = 1e-7


def rim_only(grid):
    """The rim nodes of a built grid, with an all-zero lattice."""
    rim = slice(grid.lattice_nodes, None)
    return ApertureGrid(
        x=grid.x[rim], y=grid.y[rim], weight=grid.weight[rim], e0=grid.e0[rim],
        resolution=grid.resolution, axis=grid.axis, lattice=np.zeros_like(grid.lattice),
        lattice_nodes=0,
    )


@pytest.mark.parametrize("line", [True, False], ids=["line", "window"])
@pytest.mark.parametrize("dusty", [False, True], ids=["clear", "dust"])
@pytest.mark.parametrize("D", [1000.0, 5000.0])
def test_rim_field_matches_direct_sum(D, dusty, line, caplog):
    ls = LaserSource(P0=1000.0, w0=0.05, r_a=0.05, wavelength=1064e-9)
    half = 0.75  # the shift window of the default 0.5 m panel
    grid = rim_only(
        build_aperture_grid(ls, required_aperture_resolution(ls, D, math.hypot(half, half)))
    )
    geom = ScenarioGeometry(D=D, h0=2.0, hp=2.0)
    dust = DustModel(d_p=175e-9, C_ext=5.257e-14) if dusty else None
    xs = np.array([0.0]) if line else np.linspace(0.0, half, 6)
    ys = np.linspace(-half, half, 41 if line else 11)
    with caplog.at_level(logging.WARNING, logger="moonbeam"):
        e = field_on_grid(grid, geom, dust, ls.wavelength, xs, ys, D)
    assert not caplog.records  # the separable path ran
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
    points = []
    direct = diffraction.field_at_points

    def counting(grid_, geom_, dust_, wavelength, xs, ys, zs):
        points.append(np.broadcast(xs, ys, zs).size)
        return direct(grid_, geom_, dust_, wavelength, xs, ys, zs)

    monkeypatch.setattr(diffraction, "field_at_points", counting)
    e = field_on_grid(
        grid, geom, dust, ls.wavelength, np.linspace(0.0, 0.75, 41), np.linspace(-0.75, 0.75, 82),
        5000.0,
    )
    assert e.shape == (41, 82)
    assert points == [1]

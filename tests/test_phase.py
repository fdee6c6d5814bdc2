"""Tests for ray phase accumulation: closed forms against quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from moonbeam.dust import DustModel, particle_density
from moonbeam.errors import DomainError, TerrainError
from moonbeam.geometry import PathPoint, ScenarioGeometry
from moonbeam.phase import (
    ComplexPhase,
    column_density,
    cumulative_phase,
    cumulative_phase_quadrature,
    mean_density,
)

WAVELENGTH = 1064e-9

# Mean density over [2.0, 2.5] m for the default profile, frozen from
# scipy.integrate.quad of -A*ln(h/H) run at tolerance 1e-13.
MEAN_DENSITY_2_TO_2P5 = 563308436.036


def default_dust(**kwargs):
    base = dict(d_p=175e-9, C_ext=7.3e-16)
    base.update(kwargs)
    return DustModel(**base)


def quad_mean(dm, h1, h2):
    """Independent mean density: adaptive quadrature over height."""
    pts = [p for p in (dm.h_floor, dm.H) if min(h1, h2) < p < max(h1, h2)]
    val, err = quad(
        lambda h: particle_density(dm, h), h1, h2,
        points=pts or None, limit=300, epsabs=0.0, epsrel=1e-12,
    )
    return val / (h2 - h1)


def test_complex_phase_total_and_validation():
    with pytest.raises(DomainError, match="extinction"):
        ComplexPhase(re_vacuum=1.0, re_excess=0.0, im=-0.1)
    with pytest.raises(DomainError, match="vacuum"):
        ComplexPhase(re_vacuum=-1.0, re_excess=0.0, im=0.0)


def test_mean_density_degenerate_interval_is_point_value():
    dm = default_dust()
    assert mean_density(dm, 2.0, 2.0) == pytest.approx(
        particle_density(dm, 2.0), rel=1e-14
    )


def test_mean_density_frozen_log_region_value():
    dm = default_dust()
    assert mean_density(dm, 2.0, 2.5) == pytest.approx(MEAN_DENSITY_2_TO_2P5, rel=1e-10)


@pytest.mark.parametrize(
    "h1,h2",
    [
        (2.0, 2.5),           # purely inside the log region
        (5e-4, 3e-3),         # straddles the clamp floor
        (8.0, 12.0),          # straddles the ceiling
        (1e-4, 15.0),         # spans all three segments
        (3.0, 3.0 + 1e-4),    # short interval
    ],
)
def test_mean_density_matches_quadrature(h1, h2):
    dm = default_dust()
    assert mean_density(dm, h1, h2) == pytest.approx(quad_mean(dm, h1, h2), rel=1e-10)


def per_pair_mean_density(dm, h1, h2):
    """mean_density with every term evaluated on the broadcast pairs: the
    clamps, both logarithms and the floor segment per pair."""
    h1a = np.asarray(h1, dtype=float)
    h2a = np.asarray(h2, dtype=float)
    lo = np.minimum(h1a, h2a)
    hi = np.maximum(h1a, h2a)
    span = hi - lo
    near_equal = span <= 1e-9 * (lo + hi)
    mid = np.clip(0.5 * (lo + hi), dm.h_floor, dm.H)
    result = -dm.A * np.log(mid / dm.H)
    if np.any(~near_equal):
        safe_span = np.where(near_equal, 1.0, span)
        below_len = np.clip(np.minimum(hi, dm.h_floor) - lo, 0.0, None)
        n_floor = -dm.A * math.log(dm.h_floor / dm.H)
        integral = below_len * n_floor
        a = np.clip(lo, dm.h_floor, dm.H)
        b = np.clip(hi, dm.h_floor, dm.H)
        seg = b - a
        has_mid = seg > 0.0
        a_safe = np.where(has_mid, a, 1.0)
        b_safe = np.where(has_mid, b, 2.0)
        seg_safe = np.where(has_mid, seg, 1.0)
        mean_mid = dm.A * (1.0 - np.log(a_safe / dm.H)) - dm.A * b_safe * np.log1p(
            seg_safe / a_safe
        ) / seg_safe
        integral = integral + np.where(has_mid, mean_mid * seg, 0.0)
        result = np.where(near_equal, result, integral / safe_span)
    return result


#: Heights from below the floor to above the ceiling, with the profile's
#: own breakpoints and the paper's panel and source heights.
table_heights = st.lists(
    st.one_of(st.floats(1e-4, 20.0), st.sampled_from([1e-4, 1e-3, 2.0, 8.68, 12.0, 20.0])),
    min_size=1, max_size=40,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table_heights, table_heights, st.lists(st.floats(-1e-9, 1e-9), max_size=6))
def test_mean_density_table_equals_the_per_pair_formula(rows, cols, nudges):
    # Columns within 1e-9 m of the first row's height make near-equal pairs.
    cols = cols + [rows[0] + d for d in nudges if rows[0] + d > 0.0]
    dm = default_dust()
    h1, h2 = np.array(rows)[:, None], np.array(cols)[None, :]
    assert np.array_equal(mean_density(dm, h1, h2), per_pair_mean_density(dm, h1, h2))
    assert np.array_equal(mean_density(dm, h2, h1), per_pair_mean_density(dm, h2, h1))
    assert mean_density(dm, rows[0], cols[-1]) == per_pair_mean_density(dm, rows[0], cols[-1])


#: Destination heights with near-equal neighbours: each height h also
#: appears as h * (1 + r) for the drawn relative offsets r.
near_equal_offsets = st.lists(
    st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 2e-9, 1e-7]), max_size=4
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(table_heights, table_heights, near_equal_offsets)
def test_mean_density_is_largest_at_the_lowest_endpoint_pair(rows, cols, offsets):
    # diffraction.field_on_grid bounds every ray's mean density by the
    # one at the lowest source and destination heights.
    rows = rows + [rows[0] * (1.0 + r) for r in offsets] + [cols[0] * (1.0 + r) for r in offsets]
    dm = default_dust()
    h1, h2 = np.array(rows), np.array(cols)
    table = mean_density(dm, h1[:, None], h2[None, :])
    assert mean_density(dm, h1.min(), h2.min()) >= table.max()


def frozen_mean_density(dm, h1, h2):
    """mean_density as first written, frozen: np.any, np.clip and one errstate
    around the division. The program's form must return its bits."""
    h1a = np.asarray(h1, dtype=float)
    h2a = np.asarray(h2, dtype=float)
    if np.any(h1a <= 0.0) or np.any(h2a <= 0.0):
        raise DomainError("heights must be positive to evaluate the density profile")
    scalar = h1a.ndim == 0 and h2a.ndim == 0
    h1a, h2a = np.atleast_1d(h1a, h2a)
    span = np.abs(h1a - h2a)
    total = h1a + h2a
    near_equal = span <= 1e-9 * total
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
        lo = np.minimum(h1a, h2a)
        below_len = np.clip(np.minimum(np.maximum(h1a, h2a), dm.h_floor) - lo, 0.0, None)
        integral = below_len * (-dm.A * math.log(dm.h_floor / dm.H)) + integral
    with np.errstate(divide="ignore", invalid="ignore"):
        result = integral / span
    if np.any(near_equal):
        mid = np.clip(0.5 * total[near_equal], dm.h_floor, dm.H)
        result[near_equal] = -dm.A * np.log(mid / dm.H)
    if scalar:
        return float(result[0])
    return result


#: Relative offsets of a partner height: equal, inside and just outside
#: the near-equal rule's 1e-9, and well apart.
partner_offsets = st.sampled_from([0.0, 1e-15, -3e-10, 1e-9, -1e-9, 1.5e-9, 1e-7, -0.3, 2.0])


@st.composite
def density_args(draw):
    """(dust, h1, h2): scalars, a column by a row, or equal shapes, with
    heights below the floor, above the ceiling, at both and near-equal."""
    dm = default_dust(h_floor=draw(st.sampled_from([1e-3, 0.5, 2.0])))
    height = st.one_of(
        st.floats(1e-5, 20.0),
        st.sampled_from([dm.h_floor, dm.H, 0.5 * dm.h_floor, 1e-5, 2.0, 12.0, 20.0]),
    )
    first = draw(st.lists(height, min_size=1, max_size=8))
    second = [h * (1.0 + draw(partner_offsets)) if draw(st.booleans()) else draw(height)
              for h in first]
    second = [h if h > 0.0 else dm.h_floor for h in second]
    shape = draw(st.sampled_from(["scalar", "table", "equal"]))
    if shape == "scalar":
        return dm, first[0], second[0]
    if shape == "table":
        return dm, np.array(first)[:, None], np.array(second)[None, :]
    return dm, np.array(first), np.array(second)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(density_args())
def test_mean_density_returns_the_frozen_formulas_bits(args):
    dm, h1, h2 = args
    for a, b in ((h1, h2), (h2, h1)):
        got, want = mean_density(dm, a, b), frozen_mean_density(dm, a, b)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert [float(v).hex() for v in np.ravel(got)] == [float(v).hex() for v in np.ravel(want)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(density_args(), st.sampled_from([0.0, -0.0, -1e-300, -2.0]), st.integers(0, 1))
def test_mean_density_refuses_nonpositive_heights_as_the_frozen_formula(args, bad, side):
    dm, h1, h2 = args
    heights = [np.array(h1, dtype=float), np.array(h2, dtype=float)]
    heights[side].flat[-1] = bad
    for fn in (mean_density, frozen_mean_density):
        with pytest.raises(DomainError, match="positive"):
            fn(dm, *heights)


def test_mean_density_symmetric_in_endpoints():
    dm = default_dust()
    assert mean_density(dm, 1.0, 6.0) == mean_density(dm, 6.0, 1.0)


def test_mean_density_zero_above_ceiling():
    dm = default_dust()
    assert mean_density(dm, 9.0, 15.0) == 0.0


def test_mean_density_rejects_nonpositive_heights():
    dm = default_dust()
    with pytest.raises(DomainError, match="positive"):
        mean_density(dm, 0.0, 2.0)
    with pytest.raises(DomainError, match="positive"):
        mean_density(dm, np.array([1.0, -1.0]), np.array([2.0, 2.0]))


def test_column_density_is_mean_times_length():
    dm = default_dust()
    assert column_density(dm, 2.0, 4.0, 1000.0) == pytest.approx(
        mean_density(dm, 2.0, 4.0) * 1000.0, rel=1e-15
    )


def level_ray(length, h):
    geom = ScenarioGeometry(D=length, h0=h, hp=h)
    return PathPoint.source(0.0, 0.0), PathPoint.destination(0.0, 0.0, length), geom


def test_cumulative_phase_vacuum():
    src, dst, geom = level_ray(5000.0, 2.0)
    p = cumulative_phase(src, dst, geom, None, WAVELENGTH)
    assert p.re_vacuum == pytest.approx(2.0 * math.pi * 5000.0 / WAVELENGTH, rel=1e-15)
    assert p.re_excess == 0.0 and p.im == 0.0


def test_cumulative_phase_dusty_closed_form_pieces():
    dm = default_dust()
    src, dst, geom = level_ray(5000.0, 2.0)
    p = cumulative_phase(src, dst, geom, dm, WAVELENGTH)
    k = 2.0 * math.pi / WAVELENGTH
    cn = column_density(dm, 2.0, 2.0, 5000.0)
    assert p.re_excess == pytest.approx(k * dm.polarizability_volume * cn, rel=1e-12)
    assert p.im == pytest.approx(dm.C_ext * cn, rel=1e-12)


def test_cumulative_phase_additive_when_ray_is_split():
    dm = default_dust()
    geom = ScenarioGeometry(D=6000.0, h0=2.0, hp=7.0)
    src = PathPoint.source(0.0, 0.0)
    mid = PathPoint.destination(0.0, 0.0, 3000.0)
    dst = PathPoint.destination(0.0, 0.0, 6000.0)
    whole = cumulative_phase(src, dst, geom, dm, WAVELENGTH)
    # Second half: treat the midpoint plane as a new source plane.
    geom2 = ScenarioGeometry(D=3000.0, h0=4.5, hp=7.0)
    first = cumulative_phase(src, mid, geom, dm, WAVELENGTH)
    second = cumulative_phase(
        PathPoint.source(0.0, 0.0), PathPoint.destination(0.0, 0.0, 3000.0),
        geom2, dm, WAVELENGTH,
    )
    assert first.re_excess + second.re_excess == pytest.approx(whole.re_excess, rel=1e-12)
    assert first.im + second.im == pytest.approx(whole.im, rel=1e-12)


def test_cumulative_phase_against_quadrature_random_rays():
    dm = default_dust()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(25):
        h_src = rng.uniform(0.01, 20.0)
        h_dst = rng.uniform(0.01, 20.0)
        length = rng.uniform(10.0, 5e4)
        geom = ScenarioGeometry(D=length, h0=h_src, hp=h_dst)
        src = PathPoint.source(0.0, 0.0)
        dst = PathPoint.destination(0.0, 0.0, length)
        closed = cumulative_phase(src, dst, geom, dm, WAVELENGTH)
        quadr = cumulative_phase_quadrature(src, dst, geom, dm, WAVELENGTH, tol=1e-12)
        if quadr.re_excess > 0:
            worst = max(worst, abs(closed.re_excess - quadr.re_excess) / quadr.re_excess)
        if quadr.im > 0:
            worst = max(worst, abs(closed.im - quadr.im) / quadr.im)
    assert worst <= 1e-9


def test_cumulative_phase_terrain_error():
    geom = ScenarioGeometry(D=100.0, h0=2.0, hp=2.0)
    src = PathPoint.source(0.0, 0.0)
    low = PathPoint.destination(0.0, -2.5, 100.0)
    with pytest.raises(TerrainError, match="touches the ground"):
        cumulative_phase(src, low, geom, default_dust(), WAVELENGTH)


def test_cumulative_phase_parameter_validation():
    src, dst, geom = level_ray(100.0, 2.0)
    with pytest.raises(DomainError, match="wavelength"):
        cumulative_phase(src, dst, geom, None, 0.0)
    with pytest.raises(DomainError, match="tolerance"):
        cumulative_phase_quadrature(src, dst, geom, None, WAVELENGTH, tol=-1.0)

"""Property tests of the received power, the beam shift and the maps.

Each property is drawn over links of 10 to 50 km, with the aperture
fixed at 64 cells per axis so that every example stays cheap.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moonbeam.diffraction import compute_irradiance_map
from moonbeam.dust import calibrate_cext
from moonbeam.receiver import panel_power
from moonbeam.scenario import scenario_from_mapping

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)

distances = st.floats(10e3, 50e3)
heights = st.floats(1.0, 12.0)

#: C_ext steps of 1e-14 m^2 change the power at 10-50 km by several
#: percent, far above the panel quadrature's 1e-3 tolerance.
CEXT_STEP = 1e-14


def scenario(D, h0=2.0, hp=2.0, c_ext=None):
    cfg = {
        "geometry.D": D,
        "geometry.h0": h0,
        "geometry.hp": hp,
        "numerics.aperture_resolution": 64,
    }
    if c_ext is not None:
        cfg.update({"dust.enabled": True, "dust.cext_source": "explicit", "dust.cext": c_ext})
    return scenario_from_mapping(cfg)


@PROPERTY
@given(distances, heights, heights, st.one_of(st.none(), st.integers(1, 10)))
def test_efficiency_at_most_one(D, h0, hp, steps):
    c_ext = None if steps is None else steps * CEXT_STEP
    r = panel_power(scenario(D, h0, hp, c_ext), with_shift=False)
    assert 0.0 < r.efficiency <= 1.0


@PROPERTY
@given(distances, st.lists(st.integers(1, 10), min_size=2, max_size=2, unique=True))
def test_power_is_non_increasing_in_cext(D, steps):
    lo, hi = sorted(steps)
    p_lo = panel_power(scenario(D, c_ext=lo * CEXT_STEP), with_shift=False).power
    p_hi = panel_power(scenario(D, c_ext=hi * CEXT_STEP), with_shift=False).power
    p_clear = panel_power(scenario(D), with_shift=False).power
    assert p_hi <= p_lo <= p_clear


@PROPERTY
@given(distances, heights, heights)
def test_clear_air_shift_is_exactly_zero(D, h0, hp):
    r = panel_power(scenario(D, h0, hp))
    assert r.shift_y == 0.0 and r.peak_y == 0.0


@PROPERTY
@given(distances, heights, st.one_of(st.none(), st.integers(1, 10)))
def test_maps_are_mirror_symmetric_in_x(D, h0, steps):
    c_ext = None if steps is None else steps * CEXT_STEP
    imap = compute_irradiance_map(scenario(D, h0, 2.0, c_ext), resolution=33)
    scale = float(imap.values.max())
    assert np.max(np.abs(imap.values - imap.values[:, ::-1])) <= 1e-9 * scale


#: Reference powers as fractions of the extinction-free power, inside the
#: range where calibration solves rather than returning 0.
fractions = st.floats(1e-3, 0.999, exclude_min=True, exclude_max=True)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(distances, fractions, fractions)
def test_fitted_cext_falls_as_the_reference_rises(D, a, b):
    # A 1% gap in power moves C_ext by at least 1.4e-3 relative, well
    # beyond calibration's 5e-4.
    assume(max(a, b) >= 1.01 * min(a, b))
    s = scenario(D, c_ext=CEXT_STEP)
    clear = s.with_updates(dust=replace(s.dust, C_ext=0.0))
    p_zero = panel_power(clear, with_shift=False).power
    low, high = sorted((a, b))
    assert calibrate_cext(s, low * p_zero) > calibrate_cext(s, high * p_zero)

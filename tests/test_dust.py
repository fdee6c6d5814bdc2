"""Tests for the dust medium: profile, index, cross-sections, calibration."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from moonbeam import diffraction, receiver, source
from moonbeam.dust import (
    DustModel,
    calibrate_cext,
    imag_index,
    mie_cross_sections,
    mie_extinction_cross_section,
    particle_density,
    rayleigh_cross_section,
)
from moonbeam.errors import CalibrationError, DomainError
from moonbeam.receiver import panel_power
from moonbeam.scenario import scenario_from_mapping

# Profile values for the default medium (A=4.166e8, H=8.68, floor 1e-3),
# frozen from -A*ln(h/H) evaluated independently.
N_AT_2M = 611516453.424
N_FLOOR = 3778052418.07

# Small-particle cross-sections at 1064 nm, m=1.733, frozen from the
# (2/3)*pi^5*d^6/lambda^4 * ((m^2-1)/(m^2+2))^2 formula.
RAYLEIGH_100NM = 2.55192335522e-17
RAYLEIGH_175NM = 7.32986403365e-16
RAYLEIGH_250NM = 6.23028162896e-15

# Partial-wave series values at the same index, frozen after checking
# self-convergence and the small-particle limit.
MIE_175NM = 7.73928748122e-16
MIE_250NM = 6.76759452375e-15


def default_dust(**kwargs):
    base = dict(d_p=175e-9, C_ext=0.0)
    base.update(kwargs)
    return DustModel(**base)


def test_dust_model_validation():
    with pytest.raises(DomainError, match="diameter"):
        DustModel(d_p=0.0, C_ext=0.0)
    with pytest.raises(DomainError, match="cross-section"):
        DustModel(d_p=175e-9, C_ext=-1e-15)
    with pytest.raises(DomainError, match="floor"):
        DustModel(d_p=175e-9, C_ext=0.0, h_floor=9.0)
    with pytest.raises(DomainError, match="ceiling"):
        DustModel(d_p=175e-9, C_ext=0.0, H=-1.0)


def test_polarizability_volume():
    dm = default_dust()
    expected = 0.733 * (4.0 * math.pi / 3.0) * (87.5e-9) ** 3
    assert dm.polarizability_volume == pytest.approx(expected, rel=1e-12)
    assert dm.polarizability_volume == pytest.approx(2.05691688378e-21, rel=1e-11)


def test_particle_density_profile_values():
    dm = default_dust()
    assert particle_density(dm, 2.0) == pytest.approx(N_AT_2M, rel=1e-11)
    assert particle_density(dm, 2.0) == pytest.approx(-4.166e8 * math.log(2.0 / 8.68), rel=1e-15)


def test_particle_density_floor_clamp():
    dm = default_dust()
    assert particle_density(dm, 1e-3) == pytest.approx(N_FLOOR, rel=1e-11)
    assert particle_density(dm, 1e-4) == particle_density(dm, 1e-3)


def test_particle_density_zero_at_and_above_ceiling():
    dm = default_dust()
    assert particle_density(dm, dm.H) == 0.0
    assert particle_density(dm, 20.0) == 0.0


def test_particle_density_array_and_domain():
    dm = default_dust()
    h = np.array([1e-4, 2.0, 8.68, 15.0])
    n = particle_density(dm, h)
    assert n.shape == (4,)
    assert n[0] == N_FLOOR or n[0] == pytest.approx(N_FLOOR, rel=1e-11)
    assert n[2] == 0.0 and n[3] == 0.0
    with pytest.raises(DomainError, match="positive"):
        particle_density(dm, 0.0)
    with pytest.raises(DomainError, match="positive"):
        particle_density(dm, np.array([1.0, -2.0]))


def test_imag_index():
    dm = default_dust(C_ext=7.3e-16)
    lam = 1064e-9
    expected = 7.3e-16 * N_AT_2M * lam / (2.0 * math.pi)
    assert imag_index(dm, 2.0, lam) == pytest.approx(expected, rel=1e-9)
    assert imag_index(dm, 10.0, lam) == 0.0
    with pytest.raises(DomainError, match="wavelength"):
        imag_index(dm, 2.0, 0.0)


def test_rayleigh_cross_section_values():
    assert rayleigh_cross_section(100e-9, 1064e-9, 1.733) == pytest.approx(
        RAYLEIGH_100NM, rel=1e-11
    )
    assert rayleigh_cross_section(175e-9, 1064e-9, 1.733) == pytest.approx(
        RAYLEIGH_175NM, rel=1e-11
    )
    assert rayleigh_cross_section(250e-9, 1064e-9, 1.733) == pytest.approx(
        RAYLEIGH_250NM, rel=1e-11
    )


def test_rayleigh_cross_section_d6_scaling():
    r1 = rayleigh_cross_section(100e-9, 1064e-9, 1.733)
    r2 = rayleigh_cross_section(200e-9, 1064e-9, 1.733)
    assert r2 / r1 == pytest.approx(64.0, rel=1e-12)


def test_rayleigh_cross_section_domain():
    with pytest.raises(DomainError):
        rayleigh_cross_section(-1e-9, 1064e-9, 1.733)
    with pytest.raises(DomainError):
        rayleigh_cross_section(1e-9, 1064e-9, 0.0)


def test_mie_matches_rayleigh_for_small_particles():
    c_mie, c_sca, x = mie_cross_sections(100e-9, 1064e-9, 1.733)
    assert x == pytest.approx(math.pi * 100e-9 / 1064e-9, rel=1e-15)
    assert x < 0.3
    assert abs(c_mie - RAYLEIGH_100NM) / RAYLEIGH_100NM < 0.10


def test_mie_frozen_values_and_ratio():
    c175 = mie_extinction_cross_section(175e-9, 1064e-9, 1.733)
    c250 = mie_extinction_cross_section(250e-9, 1064e-9, 1.733)
    assert c175 == pytest.approx(MIE_175NM, rel=1e-9)
    assert c250 == pytest.approx(MIE_250NM, rel=1e-9)
    assert c250 / c175 == pytest.approx(8.74446716208, rel=1e-9)


def test_mie_series_self_convergence():
    c_base, _, x = mie_cross_sections(250e-9, 1064e-9, 1.733)
    n_base = int(math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0))
    c_more, _, _ = mie_cross_sections(250e-9, 1064e-9, 1.733, n_terms=n_base + 5)
    assert abs(c_more - c_base) / c_base < 1e-8


def test_mie_real_index_extinction_equals_scattering():
    c_ext, c_sca, _ = mie_cross_sections(250e-9, 1064e-9, 1.733)
    assert c_ext == pytest.approx(c_sca, rel=1e-10)


def test_mie_absorbing_index_extinction_exceeds_scattering():
    c_ext, c_sca, _ = mie_cross_sections(250e-9, 1064e-9, 1.733 + 0.01j)
    assert c_ext > c_sca


def test_mie_domain_errors():
    with pytest.raises(DomainError):
        mie_cross_sections(0.0, 1064e-9, 1.733)
    with pytest.raises(DomainError, match="index"):
        mie_cross_sections(250e-9, 1064e-9, -1.0)
    with pytest.raises(DomainError, match="series"):
        mie_cross_sections(250e-9, 1064e-9, 1.733, n_terms=0)


def cheap_dusty_scenario(**extra):
    cfg = {
        "geometry.D": 5000.0,
        "dust.enabled": True,
        "dust.cext_source": "explicit",
        "dust.cext": 5e-14,
        "numerics.aperture_resolution": 64,
    }
    cfg.update(extra)
    return scenario_from_mapping(cfg)


def test_calibrate_cext_round_trip():
    scenario = cheap_dusty_scenario()
    target = panel_power(scenario, with_shift=False).power
    fitted = calibrate_cext(scenario, target)
    assert fitted == pytest.approx(5e-14, rel=1e-2)
    refit = scenario.with_updates(dust=replace(scenario.dust, C_ext=fitted))
    assert panel_power(refit, with_shift=False).power == pytest.approx(target, rel=2e-3)


def test_calibrate_cext_zero_when_reference_is_clear_air_power():
    scenario = cheap_dusty_scenario()
    clear = panel_power(
        scenario.with_updates(dust_enabled=False), with_shift=False
    ).power
    trial = scenario.with_updates(
        dust=DustModel(d_p=175e-9, C_ext=0.0), dust_enabled=True
    )
    assert calibrate_cext(trial, clear) == 0.0


def test_calibrate_cext_rejects_reference_outside_power_range():
    scenario = cheap_dusty_scenario()
    with pytest.raises(DomainError, match="reference power"):
        calibrate_cext(scenario, 1500.0)
    with pytest.raises(DomainError, match="reference power"):
        calibrate_cext(scenario, 0.0)


def test_calibrate_cext_unreachable_reference():
    # Clear-air power at 5 km is ~987.8 W; 995 W cannot be reached by
    # adding extinction.
    scenario = cheap_dusty_scenario()
    with pytest.raises(CalibrationError, match="extinction-free"):
        calibrate_cext(scenario, 995.0)


def bisected_cext(scenario, reference, rel=1e-6):
    """C_ext where adaptive panel_power crosses the reference, by bisection."""

    def power(c):
        trial = scenario.with_updates(dust=replace(scenario.dust, C_ext=c))
        return panel_power(trial, with_shift=False).power

    lo, hi = 0.0, 1e-16
    while power(hi) > reference:
        lo, hi = hi, 10.0 * hi
    while hi - lo > rel * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if power(mid) > reference else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("reference", [800.0, 1.0, 1e-60, 1e-250])
def test_calibrate_cext_matches_a_fine_bisection(reference):
    # README states C_ext to 5e-4 relative. At 1e-250 W the power
    # underflows to 0 about 30% above the root.
    scenario = cheap_dusty_scenario()
    fitted = calibrate_cext(scenario, reference)
    assert fitted == pytest.approx(bisected_cext(scenario, reference), rel=5e-4)


@pytest.mark.parametrize("reference", [1e-200, 500.0])
def test_calibrate_cext_bisects_past_a_probe_whose_power_underflows(monkeypatch, reference):
    # A forward model with ln P = ln P0 - (C_ext / c_s)^2: the secant from
    # C_ext = 0 and the Rayleigh probe overshoots to where P is exactly 0.
    # Plain regula falsi then stalls on the far end of the bracket (98
    # probes at 500 W); the Illinois halving keeps it under 30.
    powers = []

    def gaussian_power(scenario, grid, order=None):
        powers.append(1000.0 * math.exp(-((scenario.dust.C_ext / 1e-13) ** 2)))
        return [(order or 36, powers[-1])], 0.0

    monkeypatch.setattr(receiver, "_panel_power", gaussian_power)
    fitted = calibrate_cext(cheap_dusty_scenario(), reference)
    assert 0.0 in powers and len(powers) < 30
    assert fitted == pytest.approx(1e-13 * math.sqrt(math.log(1000.0 / reference)), rel=5e-4)


def _counting(calls, fn, *args, **kwargs):
    calls.append(args)
    return fn(*args, **kwargs)


@pytest.mark.parametrize(
    "d_p, h0, reference, pinned",
    [
        # The benchmark's anchors, pinned at the values the earlier
        # bisection returned; both are within its 5e-4 bracket of the root.
        (175e-9, 12.0, 910.0, 5.257065813393193e-14),
        (250e-9, 2.0, 190.0, 2.6963156078053473e-13),
    ],
)
def test_calibration_builds_one_grid_and_probes_few_cross_sections(
    monkeypatch, d_p, h0, reference, pinned
):
    grids, fields = [], []
    build = partial(_counting, grids, source.build_aperture_grid)
    for mod in (source, receiver, diffraction):
        monkeypatch.setattr(mod, "build_aperture_grid", build)
    monkeypatch.setattr(
        diffraction, "field_on_grid", partial(_counting, fields, diffraction.field_on_grid)
    )
    anchor = scenario_from_mapping({
        "geometry.D": 5000.0,
        "geometry.h0": h0,
        "dust.enabled": True,
        "dust.d_p": d_p,
        "dust.cext_source": "explicit",
        "dust.cext": pinned,
    })
    fitted = calibrate_cext(anchor, reference)
    assert len(grids) == 1
    assert len({args[2].C_ext for args in fields}) <= 6
    assert fitted == pytest.approx(pinned, rel=5e-4)


@pytest.mark.parametrize(
    "d_p, h0, reference, pinned",
    [
        (175e-9, 12.0, 910.0, "0x1.d99599e92b0c3p-45"),
        (250e-9, 2.0, 190.0, "0x1.2f81027060225p-42"),
    ],
)
def test_calibration_builds_kernel_factors_once_per_point_set(
    monkeypatch, d_p, h0, reference, pinned
):
    # The probes walk orders 16, 24 and 36 at C_ext = 0, at the Rayleigh
    # probe and at the root, and hold one order between: ten kernel calls
    # on three point sets that differ only in C_ext.
    fields, builds = [], []
    monkeypatch.setattr(
        diffraction, "field_on_grid", partial(_counting, fields, diffraction.field_on_grid)
    )
    monkeypatch.setattr(
        diffraction, "_left_factors", partial(_counting, builds, diffraction._left_factors)
    )
    anchor = scenario_from_mapping({
        "geometry.D": 5000.0,
        "geometry.h0": h0,
        "dust.enabled": True,
        "dust.d_p": d_p,
        "dust.cext_source": "explicit",
        "dust.cext": 1e-14,
    })
    fitted = calibrate_cext(anchor, reference)
    assert len(fields) == 10
    assert len(builds) == 3
    assert len({args[4].size for args in fields}) == 3
    assert fitted.hex() == pinned
    assert diffraction._held is None

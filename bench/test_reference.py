"""Tests of the benchmark's reference and span recorder.

The reference is checked against closed forms it does not use: the erf^2
capture of an untruncated Gaussian and adaptive quadrature of the dust
column. Run with ``python3 -m pytest bench``.
"""

import math

import pytest
from scipy.integrate import quad
from scipy.special import erf

import reference
from workloads import PHYSICS, WORKLOADS

LASER = {"w0": 0.05, "wavelength": 1.064e-6}
PROFILE = {"A": 4.166e8, "H": 8.68, "h_floor": 1e-3}


@pytest.mark.parametrize("z, side", [(5000.0, 0.1), (25000.0, 0.5), (50000.0, 0.5)])
def test_capture_of_untruncated_gaussian_is_erf_squared(z, side):
    w0, lam = LASER["w0"], LASER["wavelength"]
    wz = w0 * math.hypot(1.0, z * lam / (math.pi * w0**2))
    exact = erf(math.sqrt(2.0) * side / 2.0 / wz) ** 2
    # r_a = 6 w0 truncates the Gaussian field at exp(-36) of its peak.
    got = reference.clear_efficiency(z, r_a=6 * w0, L=side, W=side, **LASER)
    assert got == pytest.approx(exact, rel=1e-9)


def test_centre_irradiance_of_untruncated_gaussian():
    w0, lam, z = LASER["w0"], LASER["wavelength"], 20000.0
    wz = w0 * math.hypot(1.0, z * lam / (math.pi * w0**2))
    got = reference.centre_irradiance(z, P0=1000.0, r_a=6 * w0, **LASER)
    assert got == pytest.approx(2.0 * 1000.0 / (math.pi * wz**2), rel=1e-9)


@pytest.mark.parametrize("z", [2000.0, 5000.0, 25000.0, 50000.0])
def test_quadrature_orders_are_converged(z, monkeypatch):
    args = dict(r_a=0.05, L=0.5, W=0.5, **LASER)
    base = reference.clear_efficiency(z, **args)
    monkeypatch.setattr(reference, "APERTURE_ORDER", 2 * reference.APERTURE_ORDER)
    monkeypatch.setattr(reference, "PANEL_ORDER", 2 * reference.PANEL_ORDER)
    assert reference.clear_efficiency(z, **args) == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("D, h0, hp", [
    (5000.0, 2.0, 2.0), (5000.0, 12.0, 2.0), (50000.0, 2.0, 12.0),
    (300.0, 0.0005, 4.0), (1000.0, 9.0, 20.0), (1000.0, 5.0, 5.01),
])
def test_axis_column_matches_quadrature(D, h0, hp):
    A, H, h_floor = PROFILE["A"], PROFILE["H"], PROFILE["h_floor"]
    length = math.hypot(D, hp - h0)

    def density(s):
        h = h0 + (hp - h0) * s
        return -A * math.log(min(max(h, h_floor), H) / H)

    kinks = [(h - h0) / (hp - h0) for h in (h_floor, H) if hp != h0 and 0 < (h - h0) / (hp - h0) < 1]
    want = length * quad(density, 0.0, 1.0, points=kinks or None, epsabs=0.0, epsrel=1e-12)[0]
    assert reference.axis_column(D, h0, hp, **PROFILE) == pytest.approx(want, rel=1e-9)


def test_dust_transmission_is_power_beer_lambert():
    assert reference.dust_transmission(2e-14, 1e13) == pytest.approx(math.exp(-0.4))


def test_workloads_use_the_reference_parameters():
    assert PHYSICS["laser.r_a"] == 0.05 and PHYSICS["laser.w0"] == LASER["w0"]
    assert {k: PHYSICS[f"dust.{k}"] for k in PROFILE} == PROFILE
    assert sorted(WORKLOADS) == ["calibrate", "far-study", "near-range"]


def test_recorder_rebinds_every_module_and_restores():
    moonbeam = pytest.importorskip("moonbeam")
    import moonbeam.cli  # noqa: F401  binds panel_power and build_aperture_grid
    from moonbeam.scenario import scenario_from_mapping

    from tracer import Recorder, layer_totals

    originals = (moonbeam.receiver.field_at_points, moonbeam.sweeps.panel_power)
    rec = Recorder()
    uninstall = rec.install()
    try:
        for mod in (moonbeam.receiver, moonbeam.diffraction, moonbeam):
            assert mod.field_at_points is not originals[0]
        for mod in (moonbeam.receiver, moonbeam.sweeps, moonbeam.cli):
            assert mod.panel_power is not originals[1]
        rec.op = 0
        s = scenario_from_mapping({"geometry.D": 50000.0, "numerics.aperture_resolution": 32})
        moonbeam.cli.panel_power(s)
    finally:
        uninstall()
    assert (moonbeam.receiver.field_at_points, moonbeam.sweeps.panel_power) == originals

    totals = layer_totals(rec.spans)
    pp, fap = totals["receiver.panel_power"], totals["diffraction.field_at_points"]
    grid = totals["source.build_aperture_grid"]
    assert pp["calls"] == 1 and grid["calls"] == 1 and fap["calls"] >= 2
    assert fap["pairs"] == fap["points"] * grid["nodes"]
    assert pp["points"] == fap["points"]
    assert pp["self_s"] == pytest.approx(pp["busy_s"] - fap["busy_s"] - grid["busy_s"], abs=1e-12)
    assert all(s["parent"] == 0 for s in rec.spans[1:])


def test_layer_totals_self_time_and_forward_calls():
    from tracer import layer_totals

    spans = [
        {"id": 0, "name": "dust.calibrate_cext", "parent": None, "op": 0, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "receiver.panel_power", "parent": 0, "op": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "diffraction.field_at_points", "parent": 1, "op": 0, "start": 2.0,
         "end": 3.0, "points": 4, "pairs": 40},
        {"id": 3, "name": "receiver.panel_power", "parent": 0, "op": 0, "start": 5.0, "end": 6.0},
    ]
    t = layer_totals(spans)
    assert t["dust.calibrate_cext"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0, "forward_calls": 2}
    assert t["receiver.panel_power"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0, "points": 4}
    assert t["diffraction.field_at_points"]["pairs"] == 40

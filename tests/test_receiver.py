"""Tests for panel power integration and beam-shift metrics."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moonbeam
from moonbeam import receiver
from moonbeam.diffraction import IrradianceMap, gaussian_beam_radius
from moonbeam.errors import ConvergenceError, DegenerateMapError
from moonbeam.receiver import (
    RESULT_COLUMNS,
    beam_shift,
    panel_power,
    result_row,
    _gauss_nodes,
)
from moonbeam.scenario import scenario_from_mapping

# Engine regression values, frozen from converged runs of this
# implementation (deterministic: fixed node order, pairwise sums).
EFF_25KM_RULE_RES = 0.9101194558082812
DUSTY_5KM = dict(power=718.1012008965934, shift=1.3926577328888734e-4,
                 peak=3.9511824392497486e-5)  # explicit C_ext=5.2139e-14

# Fraction of an untruncated Gaussian's power inside the 0.5 x 0.5 m
# panel at 50 km: erf(sqrt(2)*0.25/w)^2 with w = 0.342352605827 m.
ERF2_PANEL_FRACTION_50KM = 0.732466375628


def scen(**cfg):
    return scenario_from_mapping(cfg)


def test_gauss_nodes_cover_rectangle_exactly():
    xg, yg, wg = _gauss_nodes(0.25, 0.4, 16)
    assert xg.size == 8 * 16  # x>=0 half-grid times full y
    assert np.all(xg > 0.0)
    assert float(np.sum(wg)) == pytest.approx(0.5 * 0.8, rel=1e-13)


def test_gauss_nodes_require_even_order():
    with pytest.raises(ValueError, match="even"):
        _gauss_nodes(0.25, 0.25, 15)


def test_gauss_nodes_integrate_even_polynomial():
    # integral of x^2*y^4 over [-a,a]x[-b,b] = (2a^3/3)*(2b^5/5)
    a, b = 0.3, 0.2
    xg, yg, wg = _gauss_nodes(a, b, 8)
    est = float(np.sum(wg * xg**2 * yg**4))
    exact = (2.0 * a**3 / 3.0) * (2.0 * b**5 / 5.0)
    assert est == pytest.approx(exact, rel=1e-12)


def test_panel_power_free_space_regression():
    r = panel_power(scen(**{"geometry.D": 25000.0}))
    assert r.efficiency == pytest.approx(EFF_25KM_RULE_RES, rel=1e-9)
    assert r.power == pytest.approx(1000.0 * EFF_25KM_RULE_RES, rel=1e-9)
    assert r.convergence < 1e-3
    assert r.shift_y == 0.0 and r.peak_y == 0.0


def test_panel_power_wide_aperture_matches_erf_oracle():
    # With r_a = 3*w0 the truncation carries 1.5e-8 of the power, so
    # the analytic untruncated beam is an independent oracle for the
    # whole engine + quadrature chain.
    s = scen(**{
        "laser.r_a": 0.15,
        "geometry.D": 50000.0,
        "geometry.h0": 100.0,
        "geometry.hp": 100.0,
    })
    r = panel_power(s)
    assert r.efficiency == pytest.approx(ERF2_PANEL_FRACTION_50KM, rel=1e-3)
    w = float(gaussian_beam_radius(s.laser, 50000.0))
    assert r.efficiency == pytest.approx(math.erf(math.sqrt(2.0) * 0.25 / w) ** 2, rel=1e-3)


def test_panel_power_dusty_regression():
    s = scen(**{
        "dust.enabled": True,
        "dust.cext_source": "explicit",
        "dust.cext": 5.2139e-14,
    })
    r = panel_power(s)
    assert r.power == pytest.approx(DUSTY_5KM["power"], rel=1e-9)
    assert r.shift_y == pytest.approx(DUSTY_5KM["shift"], rel=1e-6)
    assert r.peak_y == pytest.approx(DUSTY_5KM["peak"], rel=1e-4)
    assert r.shift_y > 0.0 and r.peak_y > 0.0


def test_panel_power_with_shift_false_skips_metrics():
    s = scen(**{
        "dust.enabled": True,
        "dust.cext_source": "explicit",
        "dust.cext": 5.2139e-14,
    })
    r = panel_power(s, with_shift=False)
    assert r.power == pytest.approx(DUSTY_5KM["power"], rel=1e-9)
    assert r.shift_y == 0.0 and r.peak_y == 0.0


def test_target_rel_sets_the_panel_refinement_tolerance():
    # At 5 km with 64 cells, orders 16 and 24 agree to 1% but not to
    # 0.1%: the default needs order 36, a 1% target stops at 24.
    tight = panel_power(scen(**{"numerics.aperture_resolution": 64}))
    loose = panel_power(scen(**{
        "numerics.aperture_resolution": 64,
        "numerics.target_rel": 0.01,
    }))
    assert tight.convergence < 1e-3 < loose.convergence < 0.01
    assert loose.power == pytest.approx(tight.power, rel=0.01)


def test_shift_refinement_stops_at_the_order_ceiling(monkeypatch):
    # Dusty 5 km with 64 cells: the power settles at order 36 and the
    # shift window then needs orders 36, 54 and 82. With the ceiling at
    # 60 the step to 82 is out of range, so the loop gives up unevaluated.
    orders = []
    integrals = receiver._window_integrals

    def record(grid, scenario, half_x, half_y, order):
        orders.append(order)
        return integrals(grid, scenario, half_x, half_y, order)

    monkeypatch.setattr(receiver, "_window_integrals", record)
    monkeypatch.setattr(receiver, "_ORDER_CEILING", 60)
    with pytest.raises(ConvergenceError, match="beam-shift") as err:
        panel_power(scen(**{
            "dust.enabled": True,
            "dust.cext_source": "explicit",
            "dust.cext": 5e-14,
            "numerics.aperture_resolution": 64,
        }))
    assert max(orders) <= 60
    assert [order for order, _ in err.value.history] == [36, 54]


def test_dusty_panel_power_is_identical_under_one_and_two_blas_threads():
    # The separable propagation runs on BLAS matrix products; their
    # reduction order must not depend on the thread count.
    code = (
        "from moonbeam import panel_power, scenario_from_mapping\n"
        "print(repr(panel_power(scenario_from_mapping({'dust.enabled': True,"
        " 'dust.cext_source': 'explicit', 'dust.cext': 5.2139e-14}))))"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(moonbeam.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
            timeout=600,
        ).stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("PanelResult(power=718.10")


def test_result_row_zeroes_dust_columns_when_disabled():
    s = scen(**{"geometry.D": 25000.0})
    r = panel_power(s)
    row = result_row(s, r)
    assert tuple(row) == RESULT_COLUMNS
    assert row["d_p"] == 0.0 and row["C_ext"] == 0.0
    assert row["power_W"] == r.power
    assert row["efficiency"] == r.efficiency


def test_result_row_carries_dust_columns_when_enabled():
    s = scen(**{
        "dust.enabled": True,
        "dust.cext_source": "explicit",
        "dust.cext": 5e-14,
        "numerics.aperture_resolution": 64,
    })
    row = result_row(s, panel_power(s, with_shift=False))
    assert row["d_p"] == 175e-9
    assert row["C_ext"] == 5e-14


def synthetic_map(values, half=1.0):
    n = values.shape[0]
    axis = (np.arange(n) - (n - 1) / 2.0) * (2.0 * half / (n - 1))
    return IrradianceMap(
        xs=axis.copy(), ys=axis.copy(), values=values,
        extent=(half, half), distance=1000.0, meta={},
    )


def test_beam_shift_symmetric_map_is_zero():
    n = 101
    y = (np.arange(n) - (n - 1) / 2.0) / ((n - 1) / 2.0)
    vals = np.exp(-2.0 * (y[:, None] ** 2 + y[None, :] ** 2))
    assert beam_shift(synthetic_map(vals)) == pytest.approx(0.0, abs=1e-12)


def test_beam_shift_recovers_known_offset():
    n = 201
    half = 1.0
    axis = (np.arange(n) - (n - 1) / 2.0) * (2.0 * half / (n - 1))
    yy, xx = np.meshgrid(axis, axis, indexing="ij")
    vals = np.exp(-((yy - 0.08) ** 2 + xx**2) / 0.05)
    assert beam_shift(synthetic_map(vals)) == pytest.approx(0.08, abs=1e-4)


def test_beam_shift_degenerate_map():
    imap = synthetic_map(np.zeros((64, 64)))
    with pytest.raises(DegenerateMapError, match="no irradiance"):
        beam_shift(imap)

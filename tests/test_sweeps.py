"""Tests for sweep drivers, convergence control, and determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from moonbeam.dust import mie_extinction_cross_section
from moonbeam.errors import ConvergenceError, NumericalError, ValidationError
from moonbeam import source, sweeps
from moonbeam.mapio import write_table_csv
from moonbeam.phase import column_density
from moonbeam.receiver import RESULT_COLUMNS, panel_power
from moonbeam.scenario import scenario_from_mapping
from moonbeam.sweeps import (
    SWEEP_KINDS,
    SweepSpec,
    _cell_scenario,
    center_to_center_power,
    converge,
    default_axes,
    run_sweep,
)

# Aperture refinement at 25 km, frozen: the sampling rule starts at 64
# cells/axis and one doubling stabilizes the power to 0.1%.
CONVERGE_25KM = dict(resolution=128, power=909.9587424294748)


def scen(**cfg):
    return scenario_from_mapping(cfg)


def dusty_base(**cfg):
    base = {
        "dust.enabled": True,
        "dust.cext_source": "explicit",
        "dust.cext": 5e-14,
        "numerics.aperture_resolution": 64,
    }
    base.update(cfg)
    return scenario_from_mapping(base)


def test_default_axes_per_kind():
    assert set(default_axes("distance")) == {"D"}
    assert set(default_axes("height_map")) == {"h0", "D"}
    assert set(default_axes("panel_height")) == {"hp"}
    assert set(default_axes("particle_size")) == {"d_p"}
    assert set(default_axes("irradiance_maps")) == {"D"}
    assert set(default_axes("distance_comparison")) == {"D"}
    d = default_axes("distance")["D"]
    assert d[0] == 1000.0 and d[-1] == 50000.0 and d.size == 50
    with pytest.raises(ValidationError, match="unknown sweep kind"):
        default_axes("wavelength")


def test_spec_validation():
    base = scen()
    with pytest.raises(ValidationError, match="unknown sweep kind"):
        SweepSpec(kind="speed", base=base)
    with pytest.raises(ValidationError, match="no axis"):
        SweepSpec(kind="distance", base=base, axes={"hp": [2.0]})
    with pytest.raises(ValidationError, match="non-empty"):
        SweepSpec(kind="distance", base=base, axes={"D": []})
    with pytest.raises(ValidationError, match="must lie in"):
        SweepSpec(kind="distance", base=base, axes={"D": [2e5]})
    with pytest.raises(ValidationError, match="must be positive"):
        SweepSpec(kind="panel_height", base=base, axes={"hp": [0.0]})
    with pytest.raises(ValidationError, match=">= 0"):
        SweepSpec(kind="particle_size", base=dusty_base(), axes={"d_p": [-1e-9]})
    with pytest.raises(ValidationError, match="particle-size axis exceeds 1e-05 m"):
        SweepSpec(kind="particle_size", base=dusty_base(), axes={"d_p": [2e-5]})


def test_cext_needing_kinds_refuse_to_default():
    for kind in ("particle_size", "distance_comparison"):
        with pytest.raises(ValidationError, match="does not default"):
            SweepSpec(kind=kind, base=scen())


def test_center_to_center_power_clear_air_is_p0():
    assert center_to_center_power(scen()) == 1000.0


def test_center_to_center_power_pure_extinction():
    s = dusty_base(**{"geometry.D": 5000.0})
    cn = column_density(s.dust, 2.0, 2.0, 5000.0)
    expected = 1000.0 * math.exp(-2.0 * s.dust.C_ext * cn)
    assert center_to_center_power(s) == pytest.approx(expected, rel=1e-12)


def test_converge_at_25km():
    c = converge(scen(**{"geometry.D": 25000.0}), 1e-3)
    assert c.aperture_resolution == CONVERGE_25KM["resolution"]
    assert c.power == pytest.approx(CONVERGE_25KM["power"], rel=1e-9)
    assert c.final_rel < 1e-3
    assert [res for res, _ in c.history] == [64, 128]


def test_converge_reports_history_on_ceiling():
    s = scen(**{
        "geometry.D": 1000.0,
        "numerics.aperture_resolution": 16,
        "numerics.max_refinements": 1,
    })
    with pytest.raises(ConvergenceError) as err:
        converge(s, 1e-3)
    assert len(err.value.history) == 2
    assert err.value.history[0][0] == 16


def test_converge_target_validation():
    with pytest.raises(ValidationError, match="target_rel"):
        converge(scen(), 0.5)


def test_run_sweep_distance_rows():
    spec = SweepSpec(
        kind="distance",
        base=scen(**{"numerics.aperture_resolution": 64}),
        axes={"D": [5000.0, 25000.0]},
    )
    result = run_sweep(spec)
    assert result.kind == "distance"
    assert result.columns == RESULT_COLUMNS + ("error",)
    assert len(result.rows) == 2
    assert all(row["error"] is None for row in result.rows)
    assert result.rows[0]["efficiency"] > result.rows[1]["efficiency"]
    assert result.provenance["cells"] == 2
    assert result.provenance["failed"] == 0


def test_run_sweep_isolates_cell_failures():
    # hp = 0.2 m puts the panel's lower edge underground. The ground
    # only matters to dusty rays, so the base carries a tiny explicit
    # cross-section; that cell must fail alone.
    spec = SweepSpec(
        kind="panel_height",
        base=scen(**{
            "numerics.aperture_resolution": 64,
            "dust.enabled": True,
            "dust.cext_source": "explicit",
            "dust.cext": 5e-15,
        }),
        axes={"hp": [2.0, 0.2]},
    )
    result = run_sweep(spec)
    ok, bad = result.rows
    assert ok["error"] is None and ok["efficiency"] > 0.9
    assert "TerrainError" in bad["error"]
    assert result.provenance["failed"] == 1


def test_run_sweep_raises_when_every_cell_fails():
    spec = SweepSpec(
        kind="panel_height",
        base=scen(**{
            "numerics.aperture_resolution": 64,
            "dust.enabled": True,
            "dust.cext_source": "explicit",
            "dust.cext": 5e-15,
        }),
        axes={"hp": [0.2, 0.21]},
    )
    with pytest.raises(NumericalError, match="all 2 sweep cells failed"):
        run_sweep(spec)


def test_particle_size_zero_diameter_means_clear_air():
    spec = SweepSpec(
        kind="particle_size",
        base=dusty_base(),
        axes={"d_p": [0.0, 175e-9]},
    )
    result = run_sweep(spec)
    clear_row, dusty_row = result.rows
    clear = panel_power(scen(**{"numerics.aperture_resolution": 64}), with_shift=False)
    assert clear_row["power_W"] == pytest.approx(clear.power, rel=1e-12)
    assert clear_row["C_ext"] == 0.0 and clear_row["d_p"] == 0.0
    assert dusty_row["power_W"] < clear_row["power_W"]
    assert dusty_row["C_ext"] == 5e-14


def test_cell_scenario_calibrated_mode_scales_with_mie_ratio():
    # A calibrated base holds a fitted C_ext for its own d_p; other
    # cell sizes scale that magnitude with the physical Mie ratio.
    base = scen(**{
        "dust.enabled": True,
        "dust.cext_source": "calibrated",
        "dust.calibration.reference_power": 910.0,
        "numerics.aperture_resolution": 64,
    })
    base = base.with_updates(dust=replace(base.dust, C_ext=1e-14))
    spec = SweepSpec(kind="particle_size", base=base, axes={"d_p": [250e-9]})
    cell = _cell_scenario(spec, {"d_p": 250e-9})
    ratio = mie_extinction_cross_section(250e-9, 1064e-9, 1.733) / \
        mie_extinction_cross_section(175e-9, 1064e-9, 1.733)
    assert cell.dust.C_ext == pytest.approx(1e-14 * ratio, rel=1e-12)
    assert cell.dust.d_p == 250e-9


def test_run_sweep_worker_counts_agree_byte_for_byte(tmp_path):
    spec = SweepSpec(
        kind="distance",
        base=scen(**{"numerics.aperture_resolution": 64}),
        axes={"D": [5000.0, 20000.0, 50000.0]},
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    p1 = tmp_path / "serial.csv"
    p2 = tmp_path / "parallel.csv"
    write_table_csv(p1, serial.columns, serial.rows)
    write_table_csv(p2, parallel.columns, parallel.rows)
    assert p1.read_bytes() == p2.read_bytes()


def test_workers_started_without_held_grids_agree_with_one_worker(monkeypatch):
    # Forked workers inherit the parent's held grids; from an emptied set
    # they build their own, and the serial run after them starts cold too.
    spec = SweepSpec(kind="panel_height", base=dusty_base(**{"geometry.D": 20000.0}),
                     axes={"hp": [2.0, 4.0, 6.0]})
    monkeypatch.setattr(source, "_HELD", {})
    parallel = run_sweep(spec, workers=2)
    assert source._HELD == {}
    assert parallel.rows == run_sweep(spec, workers=1).rows


def test_run_sweep_starts_no_more_workers_than_cells(monkeypatch):
    # A fork pool starts all max_workers processes at once; this in-process
    # stand-in records the count and starts none.
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", InProcessPool)
    spec = SweepSpec(
        kind="distance",
        base=scen(**{"numerics.aperture_resolution": 64}),
        axes={"D": [5000.0, 20000.0, 50000.0]},
    )
    result = run_sweep(spec, workers=5000)
    assert started == [3]
    assert result.provenance["workers"] == 5000
    assert result.rows == run_sweep(spec, workers=1).rows


def test_run_sweep_irradiance_maps_kind():
    spec = SweepSpec(
        kind="irradiance_maps",
        base=scen(**{"numerics.aperture_resolution": 64}),
        axes={"D": [5000.0]},
    )
    result = run_sweep(spec)
    assert len(result.maps) == 1
    row = result.rows[0]
    assert row["error"] is None
    assert row["max_irradiance_W_m2"] > 0.0
    assert abs(row["shift_y_m"]) < 1e-6  # clear air: symmetric beam
    assert result.columns == ("D", "max_irradiance_W_m2", "shift_y_m", "error")


def test_sweep_kinds_tuple_is_stable():
    assert SWEEP_KINDS == (
        "distance",
        "height_map",
        "panel_height",
        "particle_size",
        "irradiance_maps",
        "distance_comparison",
    )


def test_irradiance_maps_from_two_workers_equal_one_and_are_read_only():
    spec = SweepSpec(
        kind="irradiance_maps",
        base=dusty_base(),
        axes={"D": [20000.0, 50000.0]},
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert parallel.rows == serial.rows
    assert [m.distance for m in parallel.maps] == [20000.0, 50000.0]
    for got, want in zip(parallel.maps, serial.maps):
        for name in ("xs", "ys", "values"):
            arr = getattr(got, name)
            assert np.array_equal(arr, getattr(want, name))
            assert not arr.flags.writeable
        assert got.meta == want.meta and got.extent == want.extent

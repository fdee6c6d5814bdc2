"""End-to-end tests of the command-line interface and its exit codes."""

import json
import time

import numpy as np
import pytest

from moonbeam import cli
from moonbeam.cli import main
from moonbeam.dust import mie_cross_sections
from moonbeam.errors import ResolutionError
from moonbeam.mapio import format_value
from moonbeam.receiver import RESULT_COLUMNS
from moonbeam.scenario import resolve_cext, scenario_from_mapping

EFF_5KM = 0.9877835227434305
EFF_25KM = 0.9101194558082812


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_result_row(out):
    header, row = out.strip().splitlines()
    assert header == ",".join(RESULT_COLUMNS)
    return dict(zip(RESULT_COLUMNS, (float(v) for v in row.split(","))))


def test_no_command_is_a_usage_error(capsys):
    code, _, err = run(capsys, )
    assert code == 1
    assert "error:" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "moonbeam" in capsys.readouterr().out


def test_simulate_default_scenario(capsys):
    code, out, _ = run(capsys, "simulate")
    assert code == 0
    row = parse_result_row(out)
    assert row["efficiency"] == pytest.approx(EFF_5KM, rel=1e-9)
    assert row["D"] == 5000.0
    assert row["d_p"] == 0.0 and row["C_ext"] == 0.0
    assert row["shift_y_m"] == 0.0


def test_simulate_distance_flag(capsys):
    code, out, _ = run(capsys, "simulate", "--distance", "25000")
    assert code == 0
    assert parse_result_row(out)["efficiency"] == pytest.approx(EFF_25KM, rel=1e-9)


def test_set_override_equals_flag(capsys):
    code1, out1, _ = run(capsys, "simulate", "--distance", "25000")
    code2, out2, _ = run(capsys, "simulate", "--set", "geometry.D=25000")
    assert code1 == code2 == 0
    assert out1 == out2


def test_set_requires_key_value(capsys):
    code, _, err = run(capsys, "simulate", "--set", "geometry.D")
    assert code == 1
    assert "KEY=VALUE" in err


def test_set_on_a_string_key_takes_the_raw_text(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "map", "--distance", "50000", "--resolution", "32",
        "--aperture-resolution", "64", "--set", "outputs.directory=2024",
    )
    assert code == 0
    assert (tmp_path / "2024" / "map_D50000.csv").is_file()
    assert out.splitlines()[0] == "2024/map_D50000.csv"
    # JSON strings and null still parse as JSON.
    code, out, _ = run(capsys, "map", "--distance", "50000", "--resolution", "32",
                       "--aperture-resolution", "64", "--set", 'outputs.directory="quoted"')
    assert code == 0 and out.splitlines()[0] == "quoted/map_D50000.csv"
    code, _, _ = run(capsys, "simulate", "--distance", "50000", "--set", "outputs.directory=null")
    assert code == 0
    # A non-string JSON value on a choice key reaches the choices check.
    code, _, err = run(capsys, "simulate", "--set", "dust.cext_source=true")
    assert code == 1
    assert "dust.cext_source must be one of mie, calibrated, explicit; got 'true'" in err


def test_config_file_is_used(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"geometry.D": 25000}))
    code, out, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert parse_result_row(out)["D"] == 25000.0


def test_config_file_syntax_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"geometry.D": }')
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "line 1" in err


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"geometry.Q": 1}))
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert "unknown config key" in err


@pytest.mark.parametrize("source", ["config", "set"])
def test_non_finite_config_number_is_a_usage_error(tmp_path, capsys, source):
    # json parses NaN and Infinity, in config files and in --set values.
    if source == "config":
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"geometry.hp": NaN}')
        argv = ["--config", str(cfg)]
    else:
        argv = ["--set", "numerics.aperture_resolution=Infinity"]
    code, out, err = run(capsys, "simulate", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "must be finite" in err


@pytest.mark.parametrize("argv", [
    ["map", "--extent", "nan"],
    ["map", "--extent", "inf"],
    ["mie", "--diameter", "nan"],
    ["mie", "--diameter", "1e-7", "--wavelength", "inf"],
], ids=["extent-nan", "extent-inf", "diameter-nan", "wavelength-inf"])
def test_non_finite_flag_outside_the_config_table_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "must be a finite number" in err


def test_missing_config_file_is_io_error(capsys):
    code, _, err = run(capsys, "simulate", "--config", "/no/such/config.json")
    assert code == 3
    assert "i/o error" in err


def test_dust_flag_requires_cross_section_source(capsys):
    code, _, err = run(capsys, "simulate", "--dust")
    assert code == 1
    assert "cross-section source" in err


def test_dust_with_explicit_cext(capsys):
    code, out, _ = run(
        capsys, "simulate", "--dust", "--cext", "5.2139e-14",
        "--aperture-resolution", "64",
    )
    assert code == 0
    row = parse_result_row(out)
    assert row["C_ext"] == pytest.approx(5.2139e-14, rel=1e-12)
    assert row["efficiency"] < EFF_5KM
    assert row["shift_y_m"] > 0.0


def test_no_dust_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "dusty.json"
    cfg.write_text(json.dumps({
        "dust.enabled": True,
        "dust.cext_source": "explicit",
        "dust.cext": 5e-14,
    }))
    code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--no-dust",
                       "--aperture-resolution", "64")
    assert code == 0
    row = parse_result_row(out)
    assert row["C_ext"] == 0.0 and row["d_p"] == 0.0


def test_mie_command(capsys):
    code, out, _ = run(capsys, "mie", "--diameter", "175e-9")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "d_p,wavelength,size_parameter,C_ext_m2,C_sca_m2"
    d_p, lam, x, c_ext, c_sca = (float(v) for v in row.split(","))
    ref_ext, ref_sca, ref_x = mie_cross_sections(175e-9, 1064e-9, 1.733)
    assert c_ext == pytest.approx(ref_ext, rel=1e-9)
    assert c_sca == pytest.approx(ref_sca, rel=1e-9)
    assert x == pytest.approx(ref_x, rel=1e-9)


def test_mie_diameter_above_the_dust_model_limit_is_a_usage_error(capsys):
    # The series length and memory grow with the size parameter, without
    # bound; the dust config refuses the same diameters.
    code, out, err = run(capsys, "mie", "--diameter", "1e-3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "1e-05 m model limit" in err


def test_mie_size_parameter_above_its_limit_is_refused_at_once(capsys):
    # x = pi*d/lambda = 3.1e8 would need a series of 3e8 terms.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "mie", "--diameter", "1e-5", "--wavelength", "1e-13")
    assert time.perf_counter() - t0 < 0.1
    assert code == 1 and out == ""
    assert err.startswith("error:") and "size parameter" in err


def test_aperture_grid_above_the_cell_cap_is_refused_at_once(capsys):
    # The sampling rule asks for 6.5e7 cells per axis at a 1 pm wavelength.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "simulate", "--distance", "5000",
                         "--set", "laser.wavelength=1e-12")
    assert time.perf_counter() - t0 < 0.1
    assert code == 1 and out == ""
    assert err.startswith("error:") and "4096-cell limit" in err


def test_calibrate_round_trip(capsys):
    code, out, _ = run(
        capsys, "calibrate", "--reference-power", "800",
        "--aperture-resolution", "64",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "d_p,reference_power_W,C_ext_m2"
    c_ext = float(row.split(",")[2])
    assert c_ext > 0.0

    code, out, _ = run(
        capsys, "simulate", "--dust", "--cext", format(c_ext, ".12g"),
        "--aperture-resolution", "64",
    )
    assert code == 0
    assert parse_result_row(out)["power_W"] == pytest.approx(800.0, rel=5e-3)


def test_calibrate_honours_calibration_geometry(capsys):
    # The reference power is measured at D = 5 km, not at the 25 km
    # scenario distance: the CLI must fit at 5 km, as resolve_cext does.
    code, out, _ = run(
        capsys, "calibrate", "--reference-power", "700", "--distance", "25000",
        "--set", "dust.calibration.D=5000", "--aperture-resolution", "64",
    )
    assert code == 0
    expected = resolve_cext(scenario_from_mapping({
        "geometry.D": 25000.0,
        "dust.enabled": True,
        "dust.cext_source": "calibrated",
        "dust.calibration.reference_power": 700.0,
        "dust.calibration.D": 5000.0,
        "numerics.aperture_resolution": 64,
    })).dust.C_ext
    assert out.strip().splitlines()[1].split(",")[2] == format_value(expected)


def test_calibrate_reference_above_p0(capsys):
    code, _, err = run(capsys, "calibrate", "--reference-power", "1500")
    assert code == 1
    assert "reference power" in err


def test_calibrate_unreachable_reference(capsys):
    code, _, err = run(capsys, "calibrate", "--reference-power", "995",
                       "--aperture-resolution", "64")
    assert code == 2
    assert "extinction-free" in err


def test_map_command_writes_files(tmp_path, capsys):
    code, out, _ = run(
        capsys, "map", "--resolution", "33", "--aperture-resolution", "64",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    csv_path = tmp_path / "map_D5000.csv"
    pgm_path = tmp_path / "map_D5000.pgm"
    scale_path = tmp_path / "map_D5000.pgm.scale.txt"
    assert str(csv_path) in out
    assert csv_path.exists() and pgm_path.exists() and scale_path.exists()
    first = csv_path.read_text().splitlines()[0]
    assert first.startswith("y\\x,")
    assert len(first.split(",")) == 34  # label + 33 x coordinates
    assert pgm_path.read_bytes()[:2] == b"P5"
    assert "irradiance_per_count_W_per_m2" in scale_path.read_text()


def test_map_resolution_validation(capsys):
    code, _, err = run(capsys, "map", "--resolution", "16")
    assert code == 1
    assert "resolution" in err


def test_map_resolution_above_its_limit_is_refused_at_once(capsys, tmp_path):
    # 4098 points per axis would already hold over 0.3 GB of map arrays.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "map", "--resolution", "4098", "--output-dir", str(tmp_path))
    assert time.perf_counter() - t0 < 0.1
    assert code == 1 and out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith("error:") and "<= 4097" in err


def test_sweep_command_writes_csv_and_manifest(tmp_path, capsys):
    code, out, _ = run(
        capsys, "sweep", "--kind", "distance", "--axis", "D=5000:10000:5000",
        "--aperture-resolution", "64", "--output-dir", str(tmp_path),
    )
    assert code == 0
    csv_path = tmp_path / "distance_sweep.csv"
    manifest_path = tmp_path / "distance_manifest.json"
    assert csv_path.exists() and manifest_path.exists()
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3  # header + D=5000 + D=10000
    assert lines[0].split(",")[0] == "D"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["kind"] == "distance"
    assert manifest["cells"] == 2
    assert manifest["failed"] == 0
    assert str(csv_path) in out and str(manifest_path) in out


def test_the_parser_is_built_once_and_keeps_calls_independent(tmp_path, capsys):
    cli._build_parser.cache_clear()
    first = run(capsys, "simulate", "--distance", "25000")
    assert cli._build_parser() is cli._build_parser()
    code, _, _ = run(
        capsys, "sweep", "--kind", "distance", "--axis", "D=5000:10000:5000",
        "--set", "geometry.h0=3", "--aperture-resolution", "64", "--output-dir", str(tmp_path),
    )
    assert code == 0
    args = cli._build_parser().parse_args(["sweep", "--kind", "distance"])
    assert args.set == [] and args.axis == []
    assert run(capsys, "simulate", "--distance", "25000") == first


def test_sweep_axis_syntax_errors(capsys):
    code, _, err = run(capsys, "sweep", "--kind", "distance", "--axis", "D=1:2")
    assert code == 1
    assert "START:STOP:STEP" in err
    code, _, err = run(capsys, "sweep", "--kind", "distance", "--axis", "D=5:1:1")
    assert code == 1


@pytest.mark.parametrize("axis", ["D=1000:nan:1000", "D=1000:inf:1000", "D=nan:2000:1000",
                                  "D=1000:2000:inf"])
def test_sweep_axis_must_be_finite(capsys, axis):
    code, out, err = run(capsys, "sweep", "--kind", "distance", "--axis", axis)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_sweep_axis_with_more_values_than_an_array_holds(capsys):
    # numpy refuses the length before allocating anything.
    code, out, err = run(capsys, "sweep", "--kind", "distance", "--axis", "D=0:1e300:1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "too many values" in err


def test_sweep_needing_cext_without_source(capsys):
    code, _, err = run(capsys, "sweep", "--kind", "particle_size")
    assert code == 1
    assert "does not default" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "transmit")
    assert code == 1
    assert "invalid choice" in err


def test_validate_command_passes(capsys):
    code, out, _ = run(capsys, "validate", "--rays", "40")
    assert code == 0
    assert "4/4 oracle checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("rays", ["0", "-5"])
def test_validate_needs_at_least_one_ray(capsys, rays):
    code, out, err = run(capsys, "validate", "--rays", rays)
    assert code == 1 and out == ""
    assert err == f"error: --rays must be at least 1, got {rays}\n"


def test_validate_reports_a_refused_aperture_grid_as_fail(capsys, monkeypatch):
    build = cli.build_aperture_grid

    def refuse_64(laser, resolution):
        if resolution == 64:
            raise ResolutionError("aperture resolution 64 reproduces only 990 W")
        return build(laser, resolution)

    monkeypatch.setattr(cli, "build_aperture_grid", refuse_64)
    code, out, _ = run(capsys, "validate", "--rays", "4")
    assert code == 2
    assert (
        "FAIL aperture grid power normalization: aperture resolution 64 reproduces only 990 W"
        in out.splitlines()
    )
    assert "3/4 oracle checks passed" in out

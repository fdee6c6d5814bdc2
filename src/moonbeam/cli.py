"""Command-line interface.

Subcommands: simulate (one scenario, CSV row to stdout), sweep
(parameter sweep to CSV files), map (irradiance map to CSV + PGM),
mie (cross-section calculator), calibrate (fit the dust cross-section
to a reference power), validate (self-check against the built-in
oracles).

Exit codes: 0 success, 1 validation error, 2 numerical error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from ._version import __version__
from .diffraction import (
    compute_irradiance_map,
    field_at_point,
    free_space_gaussian_irradiance,
    irradiance_at_point,
)
from .dust import mie_cross_sections, rayleigh_cross_section
from .errors import NumericalError, ResolutionError, ValidationError
from .geometry import PathPoint, ScenarioGeometry
from .mapio import format_value, write_map_csv, write_map_pgm, write_table_csv
from .phase import cumulative_phase, cumulative_phase_quadrature
from .receiver import RESULT_COLUMNS, panel_power, result_row
from .scenario import (CONFIG_KEYS, MAX_PARTICLE_DIAMETER, Scenario, mapping_from_text,
                       resolve_cext, scenario_from_mapping)
from .source import LaserSource, build_aperture_grid
from .sweeps import SWEEP_KINDS, SweepSpec, run_sweep


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors."""

    def error(self, message):
        raise ValidationError(message)


def _finite(text: str) -> float:
    """argparse type of the float flags outside the config table."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call of the process.

    It depends only on CONFIG_KEYS, SWEEP_KINDS and __version__, and
    parse_args leaves it as it was (the append flags' defaults are
    copied, not appended to), so every main() call shares one.
    """
    parser = _Parser(prog="moonbeam", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--config", default="default",
                       help="path to a JSON config, or 'default' for built-in defaults")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one dotted config key (repeatable)")
        for key in CONFIG_KEYS:
            if key.flag is not None:
                p.add_argument(key.flag, type=key.type, choices=key.choices, help=key.help)
        dust = p.add_mutually_exclusive_group()
        dust.add_argument("--dust", action="store_true", help="enable the dust medium")
        dust.add_argument("--no-dust", action="store_true", help="disable the dust medium")

    p_sim = sub.add_parser("simulate", help="one scenario, PanelResult CSV row to stdout")
    add_scenario_args(p_sim)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV files")
    add_scenario_args(p_sweep)
    p_sweep.add_argument("--kind", required=True, choices=SWEEP_KINDS)
    p_sweep.add_argument("--axis", action="append", default=[], metavar="NAME=START:STOP:STEP",
                         help="override a sweep axis range, STOP inclusive (repeatable)")

    p_map = sub.add_parser("map", help="irradiance map to CSV and 16-bit PGM")
    add_scenario_args(p_map)
    p_map.add_argument("--extent", type=_finite,
                       help="map half-width [m] (default: 3 panel half-extents)")
    p_map.add_argument("--resolution", type=int, default=129, help="map grid points per axis")

    p_mie = sub.add_parser("mie", help="extinction/scattering cross-sections of a sphere")
    p_mie.add_argument("--diameter", type=_finite, required=True, help="particle diameter [m]")
    p_mie.add_argument("--wavelength", type=_finite, default=1064e-9, help="wavelength [m]")
    p_mie.add_argument("--index", type=_finite, default=1.733, help="particle refractive index (real part)")
    p_mie.add_argument("--imag-index", type=_finite, default=0.0, help="particle index imaginary part")

    p_cal = sub.add_parser("calibrate", help="fit the dust cross-section to a reference power")
    add_scenario_args(p_cal)
    p_cal.add_argument("--reference-power", type=_finite, required=True,
                       help="received power to be matched [W]")

    p_val = sub.add_parser("validate", help="run the built-in oracle checks")
    p_val.add_argument("--rays", type=int, default=1000,
                       help="randomized rays for the phase cross-check")
    p_val.add_argument("--seed", type=int, default=2024)
    return parser


def _parse_set_value(name: str, text: str):
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return text  # bare strings (paths, mode names) need no quotes
    if value is not None and not isinstance(value, str) and any(
        key.name == name and key.type is str for key in CONFIG_KEYS
    ):
        return text  # a string key takes 2024 or true as written
    return value


def _scenario_from_args(args) -> Scenario:
    if args.config == "default":
        overrides = {}
    else:
        with open(args.config) as fh:
            overrides = mapping_from_text(fh.read())
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"--set needs KEY=VALUE, got {item!r}")
        overrides[key.strip()] = _parse_set_value(key.strip(), value.strip())

    for key in CONFIG_KEYS:
        if key.flag is not None:
            value = getattr(args, key.flag[2:].replace("-", "_"))
            if value is not None:
                overrides[key.name] = value
    if args.dust:
        overrides["dust.enabled"] = True
    if args.no_dust:
        overrides["dust.enabled"] = False
    if args.cext is not None and overrides.get("dust.cext_source") is None:
        overrides["dust.cext_source"] = "explicit"
    if getattr(args, "reference_power", None) is not None:
        overrides["dust.calibration.reference_power"] = args.reference_power

    return scenario_from_mapping(overrides)


def _print_result_csv(scenario, result) -> None:
    row = result_row(scenario, result)
    print(",".join(RESULT_COLUMNS))
    print(",".join(format_value(row[c]) for c in RESULT_COLUMNS))


def _cmd_simulate(args) -> int:
    scenario = resolve_cext(_scenario_from_args(args))
    result = panel_power(scenario)
    _print_result_csv(scenario, result)
    return 0


def _parse_axis(text: str):
    name, sep, rng = text.partition("=")
    parts = rng.split(":")
    if not sep or len(parts) != 3:
        raise ValidationError(f"--axis needs NAME=START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"--axis range must be numeric, got {text!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ValidationError(f"--axis needs finite STOP >= START and STEP > 0, got {text!r}")
    try:
        return name.strip(), np.arange(start, stop + step / 2, step)
    except ValueError as exc:  # more values than an array can index
        raise ValidationError(f"--axis range has too many values, got {text!r}") from exc


def _write_map_files(imap, outputs, out_dir: str) -> list:
    """Write a map's CSV and, if outputs.write_pgm, its PGM and scale
    note into out_dir; returns the paths written."""
    stem = os.path.join(out_dir, f"map_D{format_value(imap.distance)}")
    write_map_csv(imap, f"{stem}.csv")
    if not outputs.write_pgm:
        return [f"{stem}.csv"]
    write_map_pgm(imap, f"{stem}.pgm")
    return [f"{stem}.csv", f"{stem}.pgm", f"{stem}.pgm.scale.txt"]


def _cmd_sweep(args) -> int:
    scenario = _scenario_from_args(args)
    axes = dict(_parse_axis(a) for a in args.axis)
    spec = SweepSpec(kind=args.kind, base=scenario, axes=axes)
    result = run_sweep(spec)

    out_dir = scenario.outputs.resolve_directory()
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{args.kind}_sweep.csv")
    write_table_csv(csv_path, result.columns, result.rows)
    written = [csv_path]

    for imap in result.maps:
        written += _write_map_files(imap, scenario.outputs, out_dir)

    manifest_path = os.path.join(out_dir, f"{args.kind}_manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(result.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(manifest_path)

    for path in written:
        print(path)
    return 0


def _cmd_map(args) -> int:
    scenario = resolve_cext(_scenario_from_args(args))
    imap = compute_irradiance_map(
        scenario,
        extent=args.extent,
        resolution=args.resolution,
    )
    out_dir = scenario.outputs.resolve_directory()
    os.makedirs(out_dir, exist_ok=True)
    for path in _write_map_files(imap, scenario.outputs, out_dir):
        print(path)
    return 0


def _cmd_mie(args) -> int:
    if args.diameter > MAX_PARTICLE_DIAMETER:  # the series grows with the size parameter
        raise ValidationError(f"--diameter exceeds the {MAX_PARTICLE_DIAMETER} m model limit")
    m = complex(args.index, args.imag_index)
    c_ext, c_sca, x = mie_cross_sections(args.diameter, args.wavelength, m)
    print("d_p,wavelength,size_parameter,C_ext_m2,C_sca_m2")
    print(",".join(format_value(v) for v in (args.diameter, args.wavelength, x, c_ext, c_sca)))
    return 0


def _cmd_calibrate(args) -> int:
    # The same path as cext_source=calibrated, so that the configured
    # calibration geometry (dust.calibration.D/h0/hp) applies.
    scenario = resolve_cext(
        _scenario_from_args(args).with_updates(dust_enabled=True, cext_source="calibrated")
    )
    c_ext = scenario.dust.C_ext
    print("d_p,reference_power_W,C_ext_m2")
    print(",".join(format_value(v) for v in (scenario.dust.d_p, args.reference_power, c_ext)))
    return 0


def _cmd_validate(args) -> int:
    if args.rays < 1:
        raise ValidationError(f"--rays must be at least 1, got {args.rays}")
    checks = []

    # Closed-form ray phase against adaptive quadrature on random rays.
    rng = np.random.default_rng(args.seed)
    from .dust import DustModel

    dust = DustModel(d_p=175e-9, C_ext=7.3e-16)
    worst_re = worst_im = 0.0
    for _ in range(args.rays):
        h_src = rng.uniform(0.01, 20.0)
        h_dst = rng.uniform(0.01, 20.0)
        length = rng.uniform(10.0, 5e4)
        geom = ScenarioGeometry(D=length, h0=h_src, hp=h_dst)
        src = PathPoint.source(0.0, 0.0)
        dst = PathPoint.destination(0.0, 0.0, length)
        closed = cumulative_phase(src, dst, geom, dust, 1064e-9)
        quadr = cumulative_phase_quadrature(src, dst, geom, dust, 1064e-9, tol=1e-12)
        if quadr.re_excess > 0:
            worst_re = max(worst_re, abs(closed.re_excess - quadr.re_excess) / quadr.re_excess)
        if quadr.im > 0:
            worst_im = max(worst_im, abs(closed.im - quadr.im) / quadr.im)
    checks.append((
        "ray-phase closed form vs quadrature",
        max(worst_re, worst_im) <= 1e-9,
        f"max rel err re={worst_re:.3e} im={worst_im:.3e} over {args.rays} rays",
    ))

    # Wide-aperture engine against the analytic Gaussian profile.
    laser = LaserSource(P0=1000.0, w0=0.05, r_a=0.15, wavelength=1064e-9)
    grid = build_aperture_grid(laser, 128)
    worst = 0.0
    for mult in (1.0, 4.0):
        z = mult * laser.rayleigh_range
        geom = ScenarioGeometry(D=z, h0=100.0, hp=100.0)
        e = field_at_point(grid, PathPoint.destination(0.0, 0.0, z), geom, None, laser.wavelength)
        engine = irradiance_at_point(e, laser.eta)
        oracle = free_space_gaussian_irradiance(laser, 0.0, 0.0, z)
        worst = max(worst, abs(engine - oracle) / oracle)
    checks.append((
        "diffraction engine vs analytic Gaussian",
        worst <= 0.01,
        f"max on-axis rel err {worst:.3e} at 1 and 4 Rayleigh ranges",
    ))

    # Mie series against the small-particle formula and its own tail.
    c_mie, _, x = mie_cross_sections(100e-9, 1064e-9, 1.733)
    c_ray = rayleigh_cross_section(100e-9, 1064e-9, 1.733)
    mie_ok = abs(c_mie - c_ray) / c_ray <= 0.10
    n_base = int(math.ceil(x + 4.0 * x ** (1.0 / 3.0) + 2.0))
    c_ext5, _, _ = mie_cross_sections(100e-9, 1064e-9, 1.733, n_terms=n_base + 5)
    tail_ok = abs(c_ext5 - c_mie) / c_mie <= 1e-8
    checks.append((
        "Mie vs small-particle cross-section",
        mie_ok and tail_ok,
        f"rel diff {abs(c_mie - c_ray) / c_ray:.3f} at x={x:.3f}; "
        f"series extension change {abs(c_ext5 - c_mie) / c_mie:.2e}",
    ))

    # Aperture quadrature reproduces the emitted power (the build refuses
    # at the same bound, which is a FAIL here).
    default = scenario_from_mapping({})
    try:
        power = build_aperture_grid(default.laser, 64).discrete_power(default.laser.eta)
    except ResolutionError as exc:
        grid_ok, grid_detail = False, str(exc)
    else:
        grid_ok = abs(power - default.laser.P0) <= 0.005 * default.laser.P0
        grid_detail = f"discrete power {power:.6g} W of {default.laser.P0:.6g} W"
    checks.append(("aperture grid power normalization", grid_ok, grid_detail))

    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} oracle checks passed")
    return 0 if failed == 0 else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "simulate": _cmd_simulate,
            "sweep": _cmd_sweep,
            "map": _cmd_map,
            "mie": _cmd_mie,
            "calibrate": _cmd_calibrate,
            "validate": _cmd_validate,
        }[args.command]
        return handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Scenario configuration: defaults, parsing, validation, round-trip.

A scenario fully describes one experiment: laser, geometry, dust
medium, numerics, and output handling. The on-disk form is a single
JSON object with flat dotted keys (``"geometry.D": 25000``) whose
values are SI base units throughout. ``CONFIG_KEYS`` lists every key
with its type and default, which omitted keys take; parsing,
``Scenario.to_config`` and the CLI's scenario flags all derive from it.
CLI flags override config values after parsing.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .dust import DustModel, calibrate_cext, mie_extinction_cross_section
from .errors import ConfigError, TerrainError, ValidationError
from .geometry import ScenarioGeometry, ray_heights
from .source import LaserSource

#: Largest supported center-to-center distance [m].
MAX_DISTANCE = 1e5

#: Largest supported particle diameter [m]; the single-scattering dust
#: model is meaningless for boulders.
MAX_PARTICLE_DIAMETER = 10e-6

#: Cross-section sources and what each does.
CEXT_SOURCES = {
    "mie": "compute from particle size",
    "calibrated": "fit to a reference power",
    "explicit": "use dust.cext as given",
}

#: The sources with their meanings, for error messages.
CEXT_SOURCE_HELP = ", ".join(f"{name} ({meaning})" for name, meaning in CEXT_SOURCES.items())

_NO_CEXT_SOURCE = (
    "dust enabled without a cross-section source; set dust.cext_source to one of: "
    f"{CEXT_SOURCE_HELP}"
)

OUTPUT_DIR_ENV = "MOONBEAM_OUTPUT_DIR"


@dataclass(frozen=True)
class CalibrationReference:
    """Reference point for cross-section calibration.

    Geometry fields default to the scenario's own geometry when None.
    """

    reference_power: float | None = None
    D: float | None = None
    h0: float | None = None
    hp: float | None = None


@dataclass(frozen=True)
class NumericsConfig:
    """Discretization and convergence controls.

    aperture_resolution None means: derive from the oscillation-aware
    sampling rule. target_rel is the relative tolerance of the panel
    quadrature refinement in panel_power (power and beam shift);
    max_refinements bounds the resolution doublings of sweeps.converge.
    """

    aperture_resolution: int | None = None
    target_rel: float = 1e-3
    max_refinements: int = 6
    workers: int = 1

    def __post_init__(self):
        if self.aperture_resolution is not None and self.aperture_resolution < 8:
            raise ValidationError(
                f"numerics.aperture_resolution must be >= 8, got {self.aperture_resolution}"
            )
        if not 0.0 < self.target_rel <= 0.05:
            raise ValidationError(
                f"numerics.target_rel must lie in (0, 0.05], got {self.target_rel}"
            )
        if self.max_refinements < 1:
            raise ValidationError(
                f"numerics.max_refinements must be >= 1, got {self.max_refinements}"
            )
        if self.workers < 1:
            raise ValidationError(f"numerics.workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class OutputConfig:
    """Where and how results are written."""

    directory: str | None = None
    write_pgm: bool = True

    def resolve_directory(self) -> str:
        if self.directory is not None:
            return self.directory
        return os.environ.get(OUTPUT_DIR_ENV, ".")


@dataclass(frozen=True)
class Scenario:
    """One fully described beaming experiment."""

    laser: LaserSource
    geometry: ScenarioGeometry
    dust: DustModel
    dust_enabled: bool = False
    cext_source: str | None = None
    calibration: CalibrationReference = field(default_factory=CalibrationReference)
    numerics: NumericsConfig = field(default_factory=NumericsConfig)
    outputs: OutputConfig = field(default_factory=OutputConfig)

    def with_updates(self, **changes) -> "Scenario":
        """Copy with replaced top-level fields (frozen-safe)."""
        return replace(self, **changes)

    def active_dust(self) -> DustModel | None:
        """The dust model when enabled, else None (vacuum path)."""
        return self.dust if self.dust_enabled else None

    def to_config(self) -> dict:
        """Fully resolved flat dotted-key form; parsing it back yields
        an identical scenario."""
        return {key.name: attrgetter(key.target)(self) for key in CONFIG_KEYS}

    def config_hash(self) -> str:
        """Stable hash of the resolved configuration."""
        text = json.dumps(self.to_config(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ConfigKey:
    """One dotted config key.

    The key's value sets the ``Scenario`` attribute at the dotted path
    ``target`` (the key itself when None). A key whose default is None
    accepts null. ``flag`` and ``help`` make it a scenario flag of the
    CLI; ``choices`` restricts a string key.
    """

    name: str
    type: type
    default: object
    target: str | None = None
    flag: str | None = None
    help: str | None = None
    choices: dict | None = None

    def __post_init__(self):
        if self.target is None:
            object.__setattr__(self, "target", self.name)

    @property
    def nullable(self) -> bool:
        return self.default is None


#: Every config key, in documentation order.
CONFIG_KEYS = (
    ConfigKey("laser.P0", float, 1000.0),
    ConfigKey("laser.wavelength", float, 1064e-9),
    ConfigKey("laser.w0", float, 0.05),
    ConfigKey("laser.r_a", float, 0.05),
    ConfigKey("laser.eta", float, 377.0),
    ConfigKey("geometry.D", float, 5000.0,
              flag="--distance", help="center-to-center distance [m]"),
    ConfigKey("geometry.h0", float, 2.0,
              flag="--source-height", help="source center height [m]"),
    ConfigKey("geometry.hp", float, 2.0,
              flag="--panel-height", help="panel center height [m]"),
    ConfigKey("geometry.L", float, 0.5),
    ConfigKey("geometry.W", float, 0.5),
    ConfigKey("dust.enabled", bool, False, target="dust_enabled"),
    ConfigKey("dust.d_p", float, 175e-9,
              flag="--particle-diameter", help="dust particle diameter [m]"),
    ConfigKey("dust.m_p", float, 1.733),
    ConfigKey("dust.A", float, 4.166e8),
    ConfigKey("dust.H", float, 8.68),
    ConfigKey("dust.h_floor", float, 1e-3),
    ConfigKey("dust.cext_source", str, None, target="cext_source", choices=CEXT_SOURCES,
              flag="--cext-source", help="how to obtain the extinction cross-section"),
    ConfigKey("dust.cext", float, 0.0, target="dust.C_ext", flag="--cext",
              help="explicit extinction cross-section [m^2] (implies --cext-source explicit)"),
    ConfigKey("dust.calibration.reference_power", float, None,
              target="calibration.reference_power"),
    ConfigKey("dust.calibration.D", float, None, target="calibration.D"),
    ConfigKey("dust.calibration.h0", float, None, target="calibration.h0"),
    ConfigKey("dust.calibration.hp", float, None, target="calibration.hp"),
    ConfigKey("numerics.aperture_resolution", int, None, flag="--aperture-resolution",
              help="fixed aperture cells per axis (default: sampling rule)"),
    ConfigKey("numerics.target_rel", float, 1e-3),
    ConfigKey("numerics.max_refinements", int, 6),
    ConfigKey("numerics.workers", int, 1,
              flag="--workers", help="parallel worker processes"),
    ConfigKey("outputs.directory", str, None,
              flag="--output-dir", help="directory for output files"),
    ConfigKey("outputs.write_pgm", bool, True),
)

_KEYS = {key.name: key for key in CONFIG_KEYS}

#: The Scenario field each target section builds; other targets are
#: Scenario fields themselves.
_SECTIONS = {
    "laser": LaserSource,
    "geometry": ScenarioGeometry,
    "dust": DustModel,
    "calibration": CalibrationReference,
    "numerics": NumericsConfig,
    "outputs": OutputConfig,
}

_TYPE_NAMES = {bool: "a boolean", str: "a string"}


def _coerce(key: ConfigKey, value):
    name = key.name
    if value is None:
        if key.nullable:
            return None
        raise ConfigError(f"config key {name!r} does not accept null")
    if key.type in _TYPE_NAMES:
        if not isinstance(value, key.type):
            raise ConfigError(f"config key {name!r} must be {_TYPE_NAMES[key.type]}, got {value!r}")
        if key.choices is not None and value not in key.choices:
            raise ConfigError(f"{name} must be one of {', '.join(key.choices)}; got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {name!r} must be a number, got {value!r}")
    # False for NaN, and exact for ints beyond the float range.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config key {name!r} must be finite, got {value!r}")
    if key.type is int:
        if value != int(value):
            raise ConfigError(f"config key {name!r} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def scenario_from_mapping(overrides: dict) -> Scenario:
    """Build and validate a scenario from dotted-key overrides."""
    cfg = {key.name: key.default for key in CONFIG_KEYS}
    for name, value in overrides.items():
        if name not in _KEYS:
            raise ConfigError(f"unknown config key {name!r}")
        cfg[name] = _coerce(_KEYS[name], value)

    d_p = cfg["dust.d_p"]
    if d_p > MAX_PARTICLE_DIAMETER:
        raise ValidationError(
            f"dust.d_p={d_p} m exceeds the {MAX_PARTICLE_DIAMETER} m model validity guard"
        )
    # Range and terrain clearance of the scenario's geometry and of the
    # calibration's, whose unset keys fall back to geometry.*. Ray
    # heights are linear, so it suffices that the lowest point of each
    # endpoint plane sits above ground.
    for p in ("geometry", "dust.calibration"):
        D, h0, hp = (
            cfg[f"geometry.{k}"] if cfg[f"{p}.{k}"] is None else cfg[f"{p}.{k}"]
            for k in ("D", "h0", "hp")
        )
        if D > MAX_DISTANCE:
            raise ValidationError(f"{p}.D={D} m exceeds the supported {MAX_DISTANCE} m")
        geom = ScenarioGeometry(D=D, h0=h0, hp=hp)
        for y_src, y_dst, what in (
            (0.0, -0.5 * cfg["geometry.W"], f"panel below minimum height: {p}.hp={hp} m "
             "leaves the panel's lower edge"),
            (-cfg["laser.r_a"], 0.0, f"source below minimum height: {p}.h0={h0} m leaves "
             "the aperture's lower edge"),
        ):
            try:
                ray_heights(geom, y_src, y_dst, D)
            except TerrainError as exc:
                raise ValidationError(f"{what} at or under the ground") from exc

    source_mode = cfg["dust.cext_source"]
    if cfg["dust.enabled"] and source_mode is None:
        raise ValidationError(_NO_CEXT_SOURCE)
    if source_mode == "explicit" and cfg["dust.cext"] <= 0.0:
        raise ValidationError(
            "dust.cext_source=explicit requires a positive dust.cext value"
        )
    if source_mode == "calibrated" and cfg["dust.calibration.reference_power"] is None:
        raise ValidationError(
            "dust.cext_source=calibrated requires dust.calibration.reference_power"
        )

    sections = {section: {} for section in _SECTIONS}
    top = {}
    for key in CONFIG_KEYS:
        section, _, attr = key.target.rpartition(".")
        (sections[section] if section else top)[attr] = cfg[key.name]
    return Scenario(**{s: cls(**sections[s]) for s, cls in _SECTIONS.items()}, **top)


def mapping_from_text(config_text: str) -> dict:
    """Parse a JSON configuration document into a raw override mapping.

    An empty document yields an empty mapping. Parse errors carry
    line/column information.
    """
    text = (config_text or "").strip()
    if not text:
        return {}
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object of dotted keys")
    return data


def resolve_cext(scenario: Scenario) -> Scenario:
    """Fill the dust cross-section from its configured source.

    explicit keeps the stored value; mie computes it from the particle
    size and index; calibrated fits it against the configured reference
    power (at the calibration geometry when given). Returns a scenario
    whose dust.C_ext is the effective value. No-op when dust is off.
    """
    if not scenario.dust_enabled:
        return scenario
    mode = scenario.cext_source
    if mode == "explicit":
        return scenario
    if mode == "mie":
        c = mie_extinction_cross_section(
            scenario.dust.d_p, scenario.laser.wavelength, scenario.dust.m_p
        )
        return scenario.with_updates(dust=replace(scenario.dust, C_ext=c))
    if mode == "calibrated":
        ref = scenario.calibration
        given = {k: getattr(ref, k) for k in ("D", "h0", "hp") if getattr(ref, k) is not None}
        ref_geom = replace(scenario.geometry, **given)
        c = calibrate_cext(scenario.with_updates(geometry=ref_geom), ref.reference_power)
        return scenario.with_updates(dust=replace(scenario.dust, C_ext=c))
    raise ValidationError(_NO_CEXT_SOURCE)

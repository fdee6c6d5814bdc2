"""Scenario configuration: defaults, parsing, validation, round-trip.

A scenario fully describes one experiment: laser, geometry, dust
medium, numerics, and output handling. The on-disk form is a single
JSON object with flat dotted keys (``"geometry.D": 25000``) whose
values are SI base units throughout; omitted keys take the defaults
below. CLI flags override config values after parsing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

from .dust import DustModel
from .errors import ConfigError, ValidationError
from .geometry import ScenarioGeometry
from .source import LaserSource

#: Largest supported center-to-center distance [m].
MAX_DISTANCE = 1e5

#: Largest supported particle diameter [m]; the single-scattering dust
#: model is meaningless for boulders.
MAX_PARTICLE_DIAMETER = 10e-6

CEXT_SOURCES = ("mie", "calibrated", "explicit")

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
        return {
            "laser.P0": self.laser.P0,
            "laser.wavelength": self.laser.wavelength,
            "laser.w0": self.laser.w0,
            "laser.r_a": self.laser.r_a,
            "laser.eta": self.laser.eta,
            "geometry.D": self.geometry.D,
            "geometry.h0": self.geometry.h0,
            "geometry.hp": self.geometry.hp,
            "geometry.L": self.geometry.L,
            "geometry.W": self.geometry.W,
            "dust.enabled": self.dust_enabled,
            "dust.d_p": self.dust.d_p,
            "dust.m_p": self.dust.m_p,
            "dust.A": self.dust.A,
            "dust.H": self.dust.H,
            "dust.h_floor": self.dust.h_floor,
            "dust.cext_source": self.cext_source,
            "dust.cext": self.dust.C_ext,
            "dust.calibration.reference_power": self.calibration.reference_power,
            "dust.calibration.D": self.calibration.D,
            "dust.calibration.h0": self.calibration.h0,
            "dust.calibration.hp": self.calibration.hp,
            "numerics.aperture_resolution": self.numerics.aperture_resolution,
            "numerics.target_rel": self.numerics.target_rel,
            "numerics.max_refinements": self.numerics.max_refinements,
            "numerics.workers": self.numerics.workers,
            "outputs.directory": self.outputs.directory,
            "outputs.write_pgm": self.outputs.write_pgm,
        }

    def config_hash(self) -> str:
        """Stable hash of the resolved configuration."""
        text = json.dumps(self.to_config(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


_DEFAULTS = {
    "laser.P0": 1000.0,
    "laser.wavelength": 1064e-9,
    "laser.w0": 0.05,
    "laser.r_a": 0.05,
    "laser.eta": 377.0,
    "geometry.D": 5000.0,
    "geometry.h0": 2.0,
    "geometry.hp": 2.0,
    "geometry.L": 0.5,
    "geometry.W": 0.5,
    "dust.enabled": False,
    "dust.d_p": 175e-9,
    "dust.m_p": 1.733,
    "dust.A": 4.166e8,
    "dust.H": 8.68,
    "dust.h_floor": 1e-3,
    "dust.cext_source": None,
    "dust.cext": 0.0,
    "dust.calibration.reference_power": None,
    "dust.calibration.D": None,
    "dust.calibration.h0": None,
    "dust.calibration.hp": None,
    "numerics.aperture_resolution": None,
    "numerics.target_rel": 1e-3,
    "numerics.max_refinements": 6,
    "numerics.workers": 1,
    "outputs.directory": None,
    "outputs.write_pgm": True,
}

_BOOL_KEYS = {"dust.enabled", "outputs.write_pgm"}
_STRING_KEYS = {"dust.cext_source", "outputs.directory"}
_INT_KEYS = {"numerics.aperture_resolution", "numerics.max_refinements", "numerics.workers"}
_OPTIONAL_KEYS = {
    "dust.cext_source",
    "dust.calibration.reference_power",
    "dust.calibration.D",
    "dust.calibration.h0",
    "dust.calibration.hp",
    "numerics.aperture_resolution",
    "outputs.directory",
}


def _coerce(key: str, value):
    if value is None:
        if key in _OPTIONAL_KEYS:
            return None
        raise ConfigError(f"config key {key!r} does not accept null")
    if key in _BOOL_KEYS:
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be a boolean, got {value!r}")
        return value
    if key in _STRING_KEYS:
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    if key in _INT_KEYS:
        if value != int(value):
            raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def scenario_from_mapping(overrides: dict) -> Scenario:
    """Build and validate a scenario from dotted-key overrides."""
    cfg = dict(_DEFAULTS)
    for key, value in overrides.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, value)

    d_p = cfg["dust.d_p"]
    if d_p > MAX_PARTICLE_DIAMETER:
        raise ValidationError(
            f"dust.d_p={d_p} m exceeds the {MAX_PARTICLE_DIAMETER} m model validity guard"
        )
    D = cfg["geometry.D"]
    if D > MAX_DISTANCE:
        raise ValidationError(f"geometry.D={D} m exceeds the supported {MAX_DISTANCE} m")

    # Terrain clearance: ray heights are linear, so it suffices that the
    # lowest point of each endpoint plane sits above ground.
    h0, hp = cfg["geometry.h0"], cfg["geometry.hp"]
    if D > 0 and hp > 0 and h0 > 0:
        cos_t = math.cos(math.atan2(hp - h0, D))
        if hp - 0.5 * cfg["geometry.W"] * cos_t <= 0.0:
            raise ValidationError(
                f"panel below minimum height: hp={hp} m leaves the panel's lower "
                f"edge at or under the ground"
            )
        if h0 - cfg["laser.r_a"] * cos_t <= 0.0:
            raise ValidationError(
                f"source below minimum height: h0={h0} m leaves the aperture's "
                f"lower edge at or under the ground"
            )
    elif hp <= 0:
        raise ValidationError(f"panel below minimum height: hp={hp} m")

    source_mode = cfg["dust.cext_source"]
    if source_mode is not None and source_mode not in CEXT_SOURCES:
        raise ValidationError(
            f"dust.cext_source must be one of {', '.join(CEXT_SOURCES)}; got {source_mode!r}"
        )
    if cfg["dust.enabled"] and source_mode is None:
        raise ValidationError(
            "dust enabled without a cross-section source; set dust.cext_source to "
            "one of: mie (compute from particle size), calibrated (fit to a "
            "reference power), explicit (use dust.cext as given)"
        )
    if source_mode == "explicit" and cfg["dust.cext"] <= 0.0:
        raise ValidationError(
            "dust.cext_source=explicit requires a positive dust.cext value"
        )
    if source_mode == "calibrated" and cfg["dust.calibration.reference_power"] is None:
        raise ValidationError(
            "dust.cext_source=calibrated requires dust.calibration.reference_power"
        )

    return Scenario(
        laser=LaserSource(
            P0=cfg["laser.P0"],
            w0=cfg["laser.w0"],
            r_a=cfg["laser.r_a"],
            wavelength=cfg["laser.wavelength"],
            eta=cfg["laser.eta"],
        ),
        geometry=ScenarioGeometry(
            D=cfg["geometry.D"],
            h0=cfg["geometry.h0"],
            hp=cfg["geometry.hp"],
            L=cfg["geometry.L"],
            W=cfg["geometry.W"],
        ),
        dust=DustModel(
            d_p=cfg["dust.d_p"],
            C_ext=cfg["dust.cext"],
            m_p=cfg["dust.m_p"],
            A=cfg["dust.A"],
            H=cfg["dust.H"],
            h_floor=cfg["dust.h_floor"],
        ),
        dust_enabled=cfg["dust.enabled"],
        cext_source=cfg["dust.cext_source"],
        calibration=CalibrationReference(
            reference_power=cfg["dust.calibration.reference_power"],
            D=cfg["dust.calibration.D"],
            h0=cfg["dust.calibration.h0"],
            hp=cfg["dust.calibration.hp"],
        ),
        numerics=NumericsConfig(
            aperture_resolution=cfg["numerics.aperture_resolution"],
            target_rel=cfg["numerics.target_rel"],
            max_refinements=cfg["numerics.max_refinements"],
            workers=cfg["numerics.workers"],
        ),
        outputs=OutputConfig(
            directory=cfg["outputs.directory"],
            write_pgm=cfg["outputs.write_pgm"],
        ),
    )


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


def parse_and_validate(config_text: str) -> Scenario:
    """Parse a JSON configuration document into a validated Scenario.

    An empty document (or empty object) yields the default scenario.
    Parse errors carry line/column information; validation errors name
    the offending key and constraint.
    """
    return scenario_from_mapping(mapping_from_text(config_text))


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
        from .dust import mie_extinction_cross_section

        c = mie_extinction_cross_section(
            scenario.dust.d_p, scenario.laser.wavelength, scenario.dust.m_p
        )
        return scenario.with_updates(dust=replace(scenario.dust, C_ext=c))
    if mode == "calibrated":
        from .dust import calibrate_cext

        ref = scenario.calibration
        geom = scenario.geometry
        ref_geom = ScenarioGeometry(
            D=ref.D if ref.D is not None else geom.D,
            h0=ref.h0 if ref.h0 is not None else geom.h0,
            hp=ref.hp if ref.hp is not None else geom.hp,
            L=geom.L,
            W=geom.W,
        )
        c = calibrate_cext(scenario.with_updates(geometry=ref_geom), ref.reference_power)
        return scenario.with_updates(dust=replace(scenario.dust, C_ext=c))
    raise ValidationError(
        "dust enabled without a cross-section source; set dust.cext_source to "
        "one of: mie, calibrated, explicit"
    )

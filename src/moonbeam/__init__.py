"""Ground-to-ground laser power beaming through suspended lunar dust.

A truncated-Gaussian laser aperture is propagated by an element-sum
diffraction engine through a height-stratified dust medium with a
complex refractive index, and the received power is integrated over a
tilted photovoltaic panel. Includes parameter-sweep drivers, a dust
cross-section calibrator, and a deterministic CLI.
"""

from ._version import __version__
from .diffraction import (
    IrradianceMap,
    compute_irradiance_map,
    field_at_point,
    field_at_points,
    free_space_gaussian_irradiance,
    gaussian_beam_radius,
    irradiance_at_point,
    required_aperture_resolution,
)
from .dust import (
    DustModel,
    calibrate_cext,
    imag_index,
    mie_cross_sections,
    mie_extinction_cross_section,
    particle_density,
    rayleigh_cross_section,
    real_index,
)
from .errors import (
    BeamError,
    CalibrationError,
    ConfigError,
    ConvergenceError,
    DegenerateMapError,
    DomainError,
    GeometryError,
    NumericalError,
    ResolutionError,
    TerrainError,
    ValidationError,
)
from .geometry import (
    PathPoint,
    ScenarioGeometry,
    separation,
    tilt_angle,
)
from .phase import ComplexPhase, cumulative_phase, cumulative_phase_quadrature
from .receiver import PanelResult, beam_shift, panel_power
from .scenario import Scenario, parse_and_validate, resolve_cext, scenario_from_mapping
from .source import ApertureGrid, LaserSource, aperture_field, build_aperture_grid
from .sweeps import (
    SweepResult,
    SweepSpec,
    center_to_center_power,
    converge,
    run_sweep,
)

__all__ = [
    "__version__",
    "ApertureGrid",
    "BeamError",
    "CalibrationError",
    "ComplexPhase",
    "ConfigError",
    "ConvergenceError",
    "DegenerateMapError",
    "DomainError",
    "DustModel",
    "GeometryError",
    "IrradianceMap",
    "LaserSource",
    "NumericalError",
    "PanelResult",
    "PathPoint",
    "ResolutionError",
    "Scenario",
    "ScenarioGeometry",
    "SweepResult",
    "SweepSpec",
    "TerrainError",
    "ValidationError",
    "aperture_field",
    "beam_shift",
    "build_aperture_grid",
    "calibrate_cext",
    "center_to_center_power",
    "compute_irradiance_map",
    "converge",
    "cumulative_phase",
    "cumulative_phase_quadrature",
    "field_at_point",
    "field_at_points",
    "free_space_gaussian_irradiance",
    "gaussian_beam_radius",
    "imag_index",
    "irradiance_at_point",
    "mie_cross_sections",
    "mie_extinction_cross_section",
    "panel_power",
    "parse_and_validate",
    "particle_density",
    "rayleigh_cross_section",
    "real_index",
    "required_aperture_resolution",
    "resolve_cext",
    "run_sweep",
    "scenario_from_mapping",
    "separation",
    "tilt_angle",
]

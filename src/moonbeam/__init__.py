"""Ground-to-ground laser power beaming through suspended lunar dust.

A truncated-Gaussian laser aperture is propagated by an element-sum
diffraction engine through a height-stratified dust medium with a
complex refractive index, and the received power is integrated over a
tilted photovoltaic panel. Includes parameter-sweep drivers, a dust
cross-section calibrator, and a deterministic CLI.

The package root exports the API that README documents; everything
else is imported from its submodule.
"""

from ._version import __version__
from .diffraction import IrradianceMap, compute_irradiance_map, field_at_points
from .dust import calibrate_cext
from .errors import BeamError, NumericalError, ValidationError
from .receiver import PanelResult, panel_power
from .scenario import Scenario, resolve_cext, scenario_from_mapping
from .sweeps import SweepResult, SweepSpec, run_sweep

__all__ = [
    "__version__",
    "BeamError",
    "IrradianceMap",
    "NumericalError",
    "PanelResult",
    "Scenario",
    "SweepResult",
    "SweepSpec",
    "ValidationError",
    "calibrate_cext",
    "compute_irradiance_map",
    # Not documented API: bench/test_reference.py's recorder test asserts
    # that its tracer rebinds moonbeam.field_at_points.
    "field_at_points",
    "panel_power",
    "resolve_cext",
    "run_sweep",
    "scenario_from_mapping",
]

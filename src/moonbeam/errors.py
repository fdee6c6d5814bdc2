"""Exception hierarchy for the beaming simulator.

Two top-level branches map onto CLI exit codes: validation problems
(bad configuration, geometry, or domain inputs) exit with status 1,
numerical problems (non-convergence, degenerate data) with status 2.
I/O errors are plain OSError and exit with status 3.
"""


class BeamError(Exception):
    """Base class for all simulator errors."""


class ValidationError(BeamError, ValueError):
    """Invalid configuration or input value. CLI exit status 1."""


class GeometryError(ValidationError):
    """Geometrically impossible arrangement (non-positive distance, ...)."""


class TerrainError(GeometryError):
    """A ray between source and panel would intersect the ground plane."""


class DomainError(ValidationError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(ValidationError):
    """Malformed or inconsistent configuration document."""


class ResolutionError(ValidationError):
    """Discretization too coarse to meet its accuracy contract."""


class NumericalError(BeamError, RuntimeError):
    """Numerical failure at valid inputs. CLI exit status 2."""


class ConvergenceError(NumericalError):
    """Refinement spent its schedule without meeting the tolerance.

    Attributes
    ----------
    history : list of (setting, value) pairs recorded during refinement.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


class CalibrationError(NumericalError):
    """Requested reference power unattainable within the search bracket.

    Attributes
    ----------
    bracket : (lo, hi) cross-section endpoints of the failed search.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class DegenerateMapError(NumericalError):
    """An irradiance map carries no usable signal (all zeros in window)."""

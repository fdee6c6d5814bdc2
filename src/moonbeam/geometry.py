"""Tilted-frame geometry of a ground-to-ground beaming link.

The optical axis runs from the center of the source aperture to the
center of the receiving panel. Both planes are normal to that axis, so
the transverse coordinates (x, y) live in a frame tilted by the angle
theta between the axis and the horizontal. Coordinates are never
rotated explicitly: every caller takes heights above ground, and the
ground test, from :func:`ray_heights`. Heights are linear along every
ray, so a ray's endpoints bound it. The ground is flat: there is no
body radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError, TerrainError


@dataclass(frozen=True)
class ScenarioGeometry:
    """Placement of source aperture and receiving panel.

    Parameters
    ----------
    D : float
        Center-to-center distance source to panel [m].
    h0 : float
        Source center height above ground [m].
    hp : float
        Panel center height above ground [m].
    L, W : float
        Panel side lengths along x and y in the tilted frame [m].

    The tilt angle ``theta`` is derived, never supplied: the axis's
    inclination against the horizontal, arctan((hp - h0) / D) [rad],
    negative when the panel sits below the source.
    """

    D: float
    h0: float
    hp: float
    L: float = 0.5
    W: float = 0.5
    theta: float = field(init=False)

    def __post_init__(self):
        if self.D <= 0:
            raise GeometryError(f"center-to-center distance must be positive, got D={self.D}")
        if self.h0 <= 0:
            raise GeometryError(f"source center height must be positive, got h0={self.h0}")
        if self.hp <= 0:
            raise GeometryError(f"panel center height must be positive, got hp={self.hp}")
        if self.L <= 0 or self.W <= 0:
            raise GeometryError(f"panel sides must be positive, got L={self.L}, W={self.W}")
        object.__setattr__(self, "theta", math.atan2(self.hp - self.h0, self.D))


@dataclass(frozen=True)
class PathPoint:
    """A point in the tilted frame, on either endpoint plane of a ray.

    Source points live in the plane z = 0, destination points in a
    plane z > 0 (z = D for panel evaluation).
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise DomainError(f"path point coordinates must be finite, got {self!r}")

    @classmethod
    def source(cls, x0: float, y0: float) -> "PathPoint":
        return cls(x0, y0, 0.0)

    @classmethod
    def destination(cls, x: float, y: float, z: float) -> "PathPoint":
        return cls(x, y, z)


def ray_heights(geom: ScenarioGeometry, y_src, y_dst, z):
    """Heights of source nodes at y_src and destinations at (y_dst, z) [m].

    The source plane center sits at height h0, the plane z = D at hp;
    the center height of intermediate planes interpolates linearly.
    Within a plane, the y coordinate contributes y*cos(theta). Takes
    scalars or arrays; raises TerrainError if any height is <= 0.
    """
    c = math.cos(geom.theta)
    h_src = y_src * c + geom.h0
    h_dst = y_dst * c + (geom.h0 + (geom.hp - geom.h0) * (z / geom.D))
    if np.min(h_src) <= 0.0 or np.min(h_dst) <= 0.0:
        raise TerrainError(
            "a source-to-destination ray touches the ground "
            f"(lowest endpoint heights {np.min(h_src):.6g}, {np.min(h_dst):.6g} m)"
        )
    return h_src, h_dst


def endpoint_heights(src: PathPoint, dst: PathPoint, geom: ScenarioGeometry) -> tuple[float, float]:
    """Heights above ground of a ray's two endpoints [m]; see :func:`ray_heights`."""
    return ray_heights(geom, src.y, dst.y, dst.z)

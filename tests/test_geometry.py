"""Tests for the tilted-frame link geometry."""

import math
from dataclasses import replace

import pytest

from moonbeam.errors import DomainError, GeometryError
from moonbeam.geometry import (
    PathPoint,
    ScenarioGeometry,
    endpoint_heights,
)


def test_geometry_derives_theta():
    geom = ScenarioGeometry(D=1000.0, h0=2.0, hp=12.0)
    assert geom.theta == pytest.approx(math.atan2(10.0, 1000.0), rel=1e-15)
    assert geom.L == 0.5 and geom.W == 0.5
    assert ScenarioGeometry(D=5000.0, h0=2.0, hp=2.0).theta == 0.0
    assert ScenarioGeometry(D=1000.0, h0=10.0, hp=2.0).theta < 0.0


def test_geometry_refuses_a_supplied_theta():
    with pytest.raises(TypeError, match="theta"):
        ScenarioGeometry(D=1000.0, h0=2.0, hp=12.0, theta=0.5)
    level = replace(ScenarioGeometry(D=1000.0, h0=2.0, hp=12.0), hp=2.0)
    assert level.theta == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"D": 0.0, "h0": 2.0, "hp": 2.0},
        {"D": 5000.0, "h0": 0.0, "hp": 2.0},
        {"D": 5000.0, "h0": 2.0, "hp": -1.0},
        {"D": 5000.0, "h0": 2.0, "hp": 2.0, "L": 0.0},
        {"D": 5000.0, "h0": 2.0, "hp": 2.0, "W": -0.5},
    ],
)
def test_geometry_rejects_nonpositive_fields(kwargs):
    with pytest.raises(GeometryError):
        ScenarioGeometry(**kwargs)


def test_path_point_constructors():
    src = PathPoint.source(0.01, -0.02)
    assert (src.x, src.y, src.z) == (0.01, -0.02, 0.0)
    dst = PathPoint.destination(0.1, 0.2, 5000.0)
    assert dst.z == 5000.0


def test_path_point_rejects_non_finite():
    with pytest.raises(DomainError, match="finite"):
        PathPoint(0.0, math.nan, 1.0)
    with pytest.raises(DomainError, match="finite"):
        PathPoint(math.inf, 0.0, 1.0)


def test_endpoint_heights_at_plane_centers():
    geom = ScenarioGeometry(D=5000.0, h0=2.0, hp=6.0)
    h_src, h_dst = endpoint_heights(
        PathPoint.source(0.0, 0.0), PathPoint.destination(0.0, 0.0, 5000.0), geom
    )
    assert h_src == pytest.approx(2.0, abs=0.0)
    assert h_dst == pytest.approx(6.0, rel=1e-15)


def test_endpoint_heights_y_offset_scales_with_cos_theta():
    geom = ScenarioGeometry(D=1000.0, h0=2.0, hp=12.0)
    c = math.cos(geom.theta)
    h_src, h_dst = endpoint_heights(
        PathPoint.source(0.0, 0.04), PathPoint.destination(0.3, -0.2, 1000.0), geom
    )
    assert h_src == pytest.approx(2.0 + 0.04 * c, rel=1e-15)
    assert h_dst == pytest.approx(12.0 - 0.2 * c, rel=1e-15)
    # x never changes the height
    h_src2, h_dst2 = endpoint_heights(
        PathPoint.source(5.0, 0.04), PathPoint.destination(-7.0, -0.2, 1000.0), geom
    )
    assert h_src2 == h_src and h_dst2 == h_dst


def test_endpoint_heights_intermediate_plane_interpolates():
    geom = ScenarioGeometry(D=5000.0, h0=2.0, hp=6.0)
    _, h_mid = endpoint_heights(
        PathPoint.source(0.0, 0.0), PathPoint.destination(0.0, 0.0, 2500.0), geom
    )
    assert h_mid == pytest.approx(4.0, rel=1e-15)

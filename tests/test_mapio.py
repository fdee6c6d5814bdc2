"""Tests for deterministic CSV/PGM serialization."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moonbeam.diffraction import IrradianceMap
from moonbeam.mapio import format_value, write_map_csv, write_map_pgm, write_table_csv


def test_format_value_forms():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(5) == "5"
    assert format_value(np.int64(7)) == "7"
    assert format_value(0.1) == "0.1"
    assert format_value(1.0 / 3.0) == format(1.0 / 3.0, ".12g")
    assert format_value(np.float64(2.5)) == "2.5"
    assert format_value(math.nan) == "nan"
    assert format_value(None) == ""
    assert format_value("explicit") == "explicit"


def test_format_value_is_stable_under_reformat():
    rng = np.random.default_rng(3)
    for v in rng.uniform(-1e6, 1e6, size=200):
        once = format_value(float(v))
        again = format_value(float(once))
        assert once == again


def test_write_table_csv(tmp_path):
    path = tmp_path / "rows.csv"
    write_table_csv(
        path,
        ("a", "b", "err"),
        [{"a": 1.5, "b": True, "err": None}, {"a": 2, "b": False}],
    )
    assert path.read_text() == "a,b,err\n1.5,true,\n2,false,\n"


def small_map():
    xs = np.array([-0.1, 0.0, 0.1])
    ys = np.array([-0.2, 0.0, 0.2])
    vals = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0]])
    return IrradianceMap(
        xs=xs, ys=ys, values=vals, extent=(0.1, 0.2), distance=5000.0, meta={},
    )


def test_write_map_csv_layout(tmp_path):
    path = tmp_path / "map.csv"
    write_map_csv(small_map(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "y\\x,-0.1,0,0.1"
    assert lines[1] == "-0.2,0,1,2"
    assert lines[3] == "0.2,6,7,8"


def csv_writer_map_bytes(imap):
    """The map CSV as csv.writer writes rows of format_value cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["y\\x"] + [format_value(x) for x in imap.xs])
    for y, row in zip(imap.ys, imap.values):
        writer.writerow([format_value(y)] + [format_value(v) for v in row])
    return buf.getvalue().encode()


#: Any double, with the special values always in the draw.
map_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     2.2250738585072014e-308 / 3.0, 1.7976931348623157e308, 1.0 / 3.0]),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 7), st.integers(0, 7), st.data())
def test_write_map_csv_bytes_equal_csv_writer_of_format_value(tmp_path_factory, nx, ny, data):
    def floats(n):
        return np.array(data.draw(st.lists(map_floats, min_size=n, max_size=n)), dtype=float)

    imap = IrradianceMap(
        xs=floats(nx), ys=floats(ny), values=floats(nx * ny).reshape(ny, nx),
        extent=(1.0, 1.0), distance=1.0, meta={},
    )
    path = tmp_path_factory.mktemp("map") / "map.csv"
    write_map_csv(imap, path)
    assert path.read_bytes() == csv_writer_map_bytes(imap)


def test_write_map_pgm_format_and_scale(tmp_path):
    path = tmp_path / "map.pgm"
    write_map_pgm(small_map(), path)
    blob = path.read_bytes()
    header = b"P5\n3 3\n65535\n"
    assert blob.startswith(header)
    counts = np.frombuffer(blob[len(header):], dtype=">u2").reshape(3, 3)
    # top row is the largest y; peak value 8.0 maps to 65535
    assert counts[0, 2] == 65535
    assert counts[2, 0] == 0
    assert counts[0, 0] == round(6.0 / 8.0 * 65535)
    scale = (tmp_path / "map.pgm.scale.txt").read_text()
    assert "max_irradiance_W_per_m2 8" in scale
    assert "irradiance_per_count_W_per_m2" in scale


def test_write_map_pgm_all_zero(tmp_path):
    imap = IrradianceMap(
        xs=np.zeros(3), ys=np.zeros(3), values=np.zeros((3, 3)),
        extent=(0.1, 0.1), distance=1.0, meta={},
    )
    path = tmp_path / "zero.pgm"
    write_map_pgm(imap, path)
    blob = path.read_bytes()
    counts = np.frombuffer(blob[-18:], dtype=">u2")
    assert np.all(counts == 0)
    assert "irradiance_per_count_W_per_m2 0" in (tmp_path / "zero.pgm.scale.txt").read_text()

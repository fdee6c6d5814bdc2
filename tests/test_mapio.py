"""Tests for deterministic CSV/PGM serialization."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moonbeam import mapio
from moonbeam.diffraction import IrradianceMap, compute_irradiance_map
from moonbeam.mapio import format_value, write_map_csv, write_map_pgm, write_table_csv
from moonbeam.scenario import scenario_from_mapping


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


def mirrored_map(half, nx):
    """A map whose columns are half's, preceded by their x-mirror."""
    values = np.concatenate([half[:, nx % 2:][:, ::-1], half], axis=1)
    xs = (np.arange(nx) - (nx - 1) / 2.0) * 0.01
    ys = np.linspace(-1.0, 1.0, half.shape[0])
    return IrradianceMap(xs=xs, ys=ys, values=values, extent=(1.0, 1.0), distance=1.0, meta={})


def is_mirrored(values):
    bits = values.view(np.uint64)
    return np.array_equal(bits, bits[:, ::-1])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 9), st.integers(0, 5), st.data())
def test_mirrored_map_csv_bytes_equal_csv_writer_of_format_value(tmp_path_factory, nx, ny, data):
    width = nx - nx // 2
    cells = data.draw(st.lists(map_floats, min_size=width * ny, max_size=width * ny))
    imap = mirrored_map(np.array(cells, dtype=float).reshape(ny, width), nx)
    assert is_mirrored(imap.values)
    path = tmp_path_factory.mktemp("map") / "map.csv"
    write_map_csv(imap, path)
    assert path.read_bytes() == csv_writer_map_bytes(imap)

    if nx >= 2 and ny >= 1:
        # One ulp off in an x < 0 cell (another payload for a NaN; a
        # NaN for an infinity): no longer mirrored, the same rule holds.
        row = data.draw(st.integers(0, ny - 1))
        col = data.draw(st.integers(0, nx // 2 - 1))
        values = imap.values.copy()
        values.view(np.uint64)[row, col] ^= 1
        imap = IrradianceMap(xs=imap.xs, ys=imap.ys, values=values, extent=(1.0, 1.0),
                             distance=1.0, meta={})
        assert not is_mirrored(imap.values)
        write_map_csv(imap, path)
        assert path.read_bytes() == csv_writer_map_bytes(imap)


def test_signed_zeros_are_no_mirror(tmp_path):
    # 0.0 == -0.0 as values, not as bits: each side keeps its own text.
    for row in ([-0.0, 1.0, 0.0], [0.0, 2.0, -0.0]):
        imap = IrradianceMap(xs=np.array([-0.1, 0.0, 0.1]), ys=np.array([0.0]),
                             values=np.array([row]), extent=(0.1, 0.1), distance=1.0, meta={})
        path = tmp_path / "map.csv"
        write_map_csv(imap, path)
        assert path.read_bytes() == csv_writer_map_bytes(imap)


@pytest.mark.parametrize("resolution", [32, 33])
def test_dusty_irradiance_map_csv_bytes_equal_csv_writer(tmp_path, resolution):
    scenario = scenario_from_mapping({
        "geometry.D": 20000.0, "dust.enabled": True,
        "dust.cext_source": "explicit", "dust.cext": 5.257065813393193e-14,
    })
    imap = compute_irradiance_map(scenario, resolution=resolution)
    assert is_mirrored(imap.values)
    path = tmp_path / "map.csv"
    write_map_csv(imap, path)
    assert path.read_bytes() == csv_writer_map_bytes(imap)


def test_mirrored_map_csv_memory_is_bounded_by_one_row_block(tmp_path):
    # Formatting the whole 1025 x 1025 map at once traces 32 MiB.
    half = np.random.default_rng(7).uniform(0.0, 3e5, size=(1025, 513))
    imap = mirrored_map(half, 1025)
    tracemalloc.start()
    try:
        write_map_csv(imap, tmp_path / "map.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    with open(tmp_path / "map.csv") as fh:
        next(fh)
        first = next(fh).rstrip("\n").split(",")
    assert first[1:] == [format_value(v) for v in imap.values[0]]


def whole_map_pgm_bytes(imap):
    """The PGM as scaled, rounded and cast over the whole map at once."""
    peak = float(imap.values.max())
    if peak > 0.0:
        counts = np.rint(imap.values / peak * 65535.0).astype(">u2")
    else:
        counts = np.zeros_like(imap.values, dtype=">u2")
    ny, nx = counts.shape
    return f"P5\n{nx} {ny}\n65535\n".encode("ascii") + counts[::-1, :].tobytes()


@pytest.mark.parametrize("block_cells", [1, 7, 64, 16384])
@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (33, 32), (64, 129)])
def test_pgm_bytes_do_not_depend_on_the_row_block(tmp_path, monkeypatch, shape, block_cells):
    rng = np.random.default_rng(shape[0] * shape[1])
    maps = {
        "random": rng.uniform(0.0, 3e5, size=shape),
        "half_counts": np.arange(shape[0] * shape[1], dtype=float).reshape(shape) * 0.5,
        "zero": np.zeros(shape),
        "negative": -rng.uniform(0.0, 1.0, size=shape),
    }
    monkeypatch.setattr(mapio, "_BLOCK_CELLS", block_cells)
    for name, values in maps.items():
        ny, nx = shape
        imap = IrradianceMap(xs=np.linspace(-1.0, 1.0, nx), ys=np.linspace(-1.0, 1.0, ny),
                             values=values, extent=(1.0, 1.0), distance=1.0, meta={})
        path = tmp_path / f"{name}.pgm"
        write_map_pgm(imap, path)
        assert path.read_bytes() == whole_map_pgm_bytes(imap), name
        peak = float(values.max())
        assert (tmp_path / f"{name}.pgm.scale.txt").read_text().splitlines()[:2] == [
            f"irradiance_per_count_W_per_m2 {format_value(peak / 65535.0 if peak > 0.0 else 0.0)}",
            f"max_irradiance_W_per_m2 {format_value(peak)}",
        ], name


def test_pgm_memory_is_bounded_by_one_row_block(tmp_path):
    # Scaling and rounding the whole 1025 x 1025 map at once traces 16 MiB.
    half = np.random.default_rng(7).uniform(0.0, 3e5, size=(1025, 513))
    imap = mirrored_map(half, 1025)
    tracemalloc.start()
    try:
        write_map_pgm(imap, tmp_path / "map.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert (tmp_path / "map.pgm").read_bytes() == whole_map_pgm_bytes(imap)


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

"""Serialization of irradiance maps and result tables.

Maps are written twice: a CSV matrix (header row of x coordinates,
first column of y coordinates) for numeric consumers, and a 16-bit
binary PGM normalized to the map maximum for quick visual checks, with
the physical scale recorded in a sidecar text file.

All floats are formatted with a fixed shortest-stable format so that
identical results serialize to identical bytes, which the determinism
guarantee (same output for any worker count) depends on.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .diffraction import IrradianceMap

#: 12 significant digits: stable under re-formatting, fine enough that
#: two runs agree byte-for-byte exactly when their doubles agree.
FLOAT_FORMAT = ".12g"


def format_value(value) -> str:
    """Canonical text form of one CSV cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            return "nan"
        return format(float(value), FLOAT_FORMAT)
    if value is None:
        return ""
    return str(value)


def write_table_csv(path, columns, rows) -> None:
    """Write dict rows as CSV with the given column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_value(row.get(col)) for col in columns])


#: Cells formatted per ``%`` call in write_map_csv; its memory is that
#: of one such block of rows, whatever the map's size.
_BLOCK_CELLS = 16384


def write_map_csv(imap: IrradianceMap, path) -> None:
    """CSV matrix: header row of x coordinates, first column of y.

    ``"%.12g" % v`` is format_value(v) for every double, and no cell
    needs CSV quoting, so the bytes are those of a csv.writer of
    format_value cells. When the map equals its x-mirror bit for bit,
    as every compute_irradiance_map result does, only the x >= 0
    columns are formatted and each row's x < 0 cells are the same
    strings reversed. The rows are formatted a block at a time, with
    one ``%`` call per block.
    """
    values = np.asarray(imap.values, dtype=float)
    ny, nx = values.shape
    bits = values.view(np.uint64)  # NaN payloads and -0.0 compare exactly
    mirrored = np.array_equal(bits, bits[:, ::-1])
    first = nx // 2 if mirrored else 0
    width = nx - first
    rows = max(1, _BLOCK_CELLS // max(width, 1))
    fmt = "%" + FLOAT_FORMAT
    header = ",".join(["y\\x"] + [fmt] * nx) + "\n"
    row = ",".join([fmt] * (nx + 1)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header % tuple(imap.xs.tolist()))
        for start in range(0, ny, rows):
            ys = imap.ys[start:start + rows]
            block = values[start:start + rows, first:]
            if not mirrored:
                cells = np.column_stack([ys, block]).ravel().tolist()
                fh.write((row * ys.size) % tuple(cells))
                continue
            cells = (((fmt + ",") * block.size) % tuple(block.ravel().tolist())).split(",")
            lines = []
            for i, y in enumerate(ys.tolist()):
                right = cells[i * width:(i + 1) * width]
                # An odd width's centre column is written once.
                lines.append(",".join([fmt % y, *right[nx % 2:][::-1], *right]))
            fh.write("\n".join(lines) + "\n")


def write_map_pgm(imap: IrradianceMap, path) -> None:
    """16-bit binary PGM normalized to the map maximum.

    The top image row is the largest y (image convention). The sidecar
    file `<path>.scale.txt` records the irradiance per count so the
    image remains quantitative.
    """
    peak = float(imap.values.max())
    scale = peak / 65535.0 if peak > 0.0 else 0.0
    if peak > 0.0:
        counts = np.rint(imap.values / peak * 65535.0).astype(">u2")
    else:
        counts = np.zeros_like(imap.values, dtype=">u2")
    counts = counts[::-1, :]  # y descending top to bottom
    ny, nx = counts.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n65535\n".encode("ascii"))
        fh.write(counts.tobytes())
    with open(f"{path}.scale.txt", "w") as fh:
        fh.write(
            "irradiance_per_count_W_per_m2 "
            + format_value(scale)
            + "\nmax_irradiance_W_per_m2 "
            + format_value(peak)
            + "\nx_half_extent_m "
            + format_value(imap.extent[0])
            + "\ny_half_extent_m "
            + format_value(imap.extent[1])
            + "\n"
        )

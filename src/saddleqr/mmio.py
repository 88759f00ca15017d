"""Matrix Market array-format reader/writer.

Files carry the header ``%%MatrixMarket matrix array real general``, a
dimensions line, then one entry per line in column-major order, written
with 17 significant digits so 64-bit floats round-trip exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .matrix import DenseMatrix, Vector

_HEADER_FIELDS = ("%%matrixmarket", "matrix", "array", "real", "general")


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; the message names file and line."""


def format17(v: float) -> str:
    """``v`` with 17 significant digits, the package's one text for a float
    that must round-trip exactly (Matrix Market entries, CSV cells)."""
    return format(v, ".17g")


def write_matrix(path, m: DenseMatrix) -> None:
    lines = ["%%MatrixMarket matrix array real general", f"{m.rows} {m.cols}"]
    lines += map(format17, m.array.ravel(order="F"))
    Path(path).write_text("\n".join(lines) + "\n")


def write_vector(path, v: Vector) -> None:
    write_matrix(path, DenseMatrix(v.array.reshape(-1, 1)))


def read_matrix(path) -> DenseMatrix:
    path = Path(path)

    def fail(lineno: int, why: str):
        raise MatrixMarketError(f"{path}:{lineno}: {why}")

    raw = []
    for lineno, line in enumerate(path.read_bytes().splitlines(), 1):
        try:
            raw.append(line.decode())
        except UnicodeDecodeError as exc:
            fail(lineno, f"not UTF-8 text ({exc.reason} at byte {exc.start + 1})")
    if not raw:
        fail(1, "empty file")
    fields = raw[0].split()
    if [f.lower() for f in fields] != list(_HEADER_FIELDS):
        fail(1, f"expected header '%%MatrixMarket matrix array real general', got {raw[0].strip()!r}")

    lineno = 1
    dims = None
    entries: list[float] = []
    for line in raw[1:]:
        lineno += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if dims is None:
            parts = stripped.split()
            if len(parts) != 2:
                fail(lineno, f"expected 'rows cols', got {stripped!r}")
            try:
                rows, cols = int(parts[0]), int(parts[1])
            except ValueError:
                fail(lineno, f"non-integer dimensions {stripped!r}")
            if rows < 1 or cols < 1:
                fail(lineno, f"dimensions must be positive, got {rows} {cols}")
            dims = (rows, cols)
            continue
        try:
            value = float(stripped)
        except ValueError:
            fail(lineno, f"unparseable entry {stripped!r}")
        if not math.isfinite(value):
            fail(lineno, f"non-finite entry {stripped!r}")
        entries.append(value)
    if dims is None:
        fail(lineno, "missing dimensions line")
    rows, cols = dims
    if len(entries) != rows * cols:
        fail(lineno, f"expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}")
    a = np.array(entries).reshape((cols, rows)).T  # column-major on disk
    return DenseMatrix(a)  # the constructor copies it row-major


def read_vector(path) -> Vector:
    m = read_matrix(path)
    if m.cols != 1:
        raise MatrixMarketError(f"{Path(path)}: expected a 1-column array, got {m.rows}x{m.cols}")
    return Vector(m.array[:, 0])

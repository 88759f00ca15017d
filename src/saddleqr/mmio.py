"""Matrix Market array-format reader/writer.

Files carry the header ``%%MatrixMarket matrix array real general``, a
dimensions line, then one entry per line in column-major order, written
with 17 significant digits so 64-bit floats round-trip exactly.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .matrix import DenseMatrix, Vector

_HEADER_FIELDS = ("%%matrixmarket", "matrix", "array", "real", "general")
_BLOCK = 1 << 16  # bytes read at a time


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


def _lines(file):
    """The lines of the binary ``file`` as ``bytes.splitlines`` cuts them, read
    ``_BLOCK`` bytes at a time: each block is split up to its last line end
    that cannot be the CR of a CR LF, and the rest is carried to the next."""
    tail = b""
    for block in iter(lambda: file.read(_BLOCK), b""):
        data = tail + block
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        yield from data[:cut].splitlines()
        tail = data[cut:]
    yield from tail.splitlines()


def read_matrix(path) -> DenseMatrix:
    """The matrix in ``path``, decoded and parsed a line at a time into one
    float64 array.  Lines end where ``bytes.splitlines`` ends them (LF, CR LF
    or CR), and the first faulty line is the one reported."""
    path = Path(path)

    def fail(lineno: int, why: str):
        raise MatrixMarketError(f"{path}:{lineno}: {why}")

    lineno, count, entries = 0, 0, None
    with path.open("rb") as file:
        for line in _lines(file):
            lineno += 1
            try:
                text = line.decode()
            except UnicodeDecodeError as exc:
                fail(lineno, f"not UTF-8 text ({exc.reason} at byte {exc.start + 1})")
            if lineno == 1:
                if [f.lower() for f in text.split()] != list(_HEADER_FIELDS):
                    fail(1, "expected header '%%MatrixMarket matrix array real general', "
                            f"got {text.strip()!r}")
                continue
            stripped = text.strip()
            if not stripped or stripped.startswith("%"):
                continue
            if entries is None:
                parts = stripped.split()
                if len(parts) != 2:
                    fail(lineno, f"expected 'rows cols', got {stripped!r}")
                try:
                    rows, cols = int(parts[0]), int(parts[1])
                except ValueError:
                    fail(lineno, f"non-integer dimensions {stripped!r}")
                if rows < 1 or cols < 1:
                    fail(lineno, f"dimensions must be positive, got {rows} {cols}")
                # A file's byte count bounds its entries, so a false dimensions
                # line allocates no more than the file could fill.
                size = os.fstat(file.fileno()).st_size or rows * cols  # a pipe reports 0
                entries = np.empty(min(rows * cols, size))
                continue
            try:
                value = float(stripped)
            except ValueError:
                fail(lineno, f"unparseable entry {stripped!r}")
            if not math.isfinite(value):
                fail(lineno, f"non-finite entry {stripped!r}")
            if count < entries.size:
                entries[count] = value
            count += 1
    if not lineno:
        fail(1, "empty file")
    if entries is None:
        fail(lineno, "missing dimensions line")
    if count != rows * cols:
        fail(lineno, f"expected {rows * cols} entries for {rows}x{cols}, got {count}")
    return DenseMatrix(entries.reshape((cols, rows)).T)  # column-major on disk; copied row-major


def read_vector(path) -> Vector:
    m = read_matrix(path)
    if m.cols != 1:
        raise MatrixMarketError(f"{Path(path)}: expected a 1-column array, got {m.rows}x{m.cols}")
    return Vector(m.array[:, 0])

"""Dense matrix and vector types with deterministic arithmetic kernels.

Storage is row-major 64-bit float, immutable after construction.

Determinism comes in two tiers.  The public ``matmul`` and ``mat_vec``,
and the two-norm, accumulate in a fixed serial order -- ascending inner
index -- so they are bitwise identical to the naive triple loop on every
run and at every thread count.  The package's internal products (QR,
block Gram-Schmidt, solves, norm estimation, metrics, generators) use
numpy ``@`` on the underlying arrays: their results are byte-reproducible
from run to run at a fixed BLAS thread count, but not across thread
counts.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

MACHINE_EPS = float(np.finfo(np.float64).eps)  # 2^-52, approx 2.22e-16


def _seq_sum(x: np.ndarray) -> float:
    """Sum of a 1-D array in strictly ascending index order."""
    if x.size == 0:
        return 0.0
    return float(np.cumsum(x)[-1])


def _norm2_arr(x: np.ndarray) -> float:
    """Two-norm with serial accumulation, scaled to avoid overflow."""
    if x.size == 0:
        return 0.0
    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        return 0.0
    y = x / scale
    return scale * float(np.sqrt(_seq_sum(y * y)))


class DenseMatrix:
    """Immutable row-major dense real matrix."""

    __slots__ = ("_a",)

    def __init__(self, values, *, copy: bool = True):
        a = np.array(values, dtype=np.float64, order="C", copy=copy)
        if a.ndim != 2:
            raise DimensionError(f"matrix must be 2-D, got {a.ndim}-D data")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionError(f"matrix dimensions must be positive, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "DenseMatrix":
        # Internal fast path: takes ownership of a freshly computed array.
        obj = cls.__new__(cls)
        if not a.flags["C_CONTIGUOUS"]:
            a = np.ascontiguousarray(a)
        a.setflags(write=False)
        obj._a = a
        return obj

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls._wrap(np.zeros((rows, cols)))

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls._wrap(np.eye(n))

    @property
    def array(self) -> np.ndarray:
        """The underlying (read-only) 2-D float64 array."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def column(self, j: int) -> "Vector":
        return Vector._wrap(self._a[:, j].copy())

    def columns(self, j0: int, j1: int) -> "DenseMatrix":
        """Submatrix of columns j0..j1-1."""
        return DenseMatrix._wrap(np.ascontiguousarray(self._a[:, j0:j1]))

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"

    def _check_same_shape(self, other: "DenseMatrix", op: str) -> None:
        if self.shape != other.shape:
            raise DimensionError(
                f"cannot {op} {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_same_shape(other, "add")
        return DenseMatrix._wrap(self._a + other._a)

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        self._check_same_shape(other, "subtract")
        return DenseMatrix._wrap(self._a - other._a)

    def __neg__(self) -> "DenseMatrix":
        return DenseMatrix._wrap(-self._a)

    def __mul__(self, scalar: float) -> "DenseMatrix":
        return DenseMatrix._wrap(self._a * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "DenseMatrix":
        return DenseMatrix._wrap(self._a / float(scalar))

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        return matmul(self, other)


class Vector:
    """Immutable dense real vector."""

    __slots__ = ("_a",)

    def __init__(self, values, *, copy: bool = True):
        a = np.array(values, dtype=np.float64, copy=copy)
        if a.ndim != 1:
            raise DimensionError(f"vector must be 1-D, got {a.ndim}-D data")
        if a.shape[0] < 1:
            raise DimensionError("vector length must be positive")
        if not np.isfinite(a).all():
            raise ValueError("vector entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Vector":
        obj = cls.__new__(cls)
        if not a.flags["C_CONTIGUOUS"]:
            a = np.ascontiguousarray(a)
        a.setflags(write=False)
        obj._a = a
        return obj

    @classmethod
    def zeros(cls, n: int) -> "Vector":
        return cls._wrap(np.zeros(n))

    @classmethod
    def ones(cls, n: int) -> "Vector":
        return cls._wrap(np.ones(n))

    @property
    def array(self) -> np.ndarray:
        return self._a

    def __len__(self) -> int:
        return self._a.shape[0]

    def __repr__(self) -> str:
        return f"Vector(len={len(self)})"

    def slice(self, i0: int, i1: int) -> "Vector":
        return Vector._wrap(self._a[i0:i1].copy())

    def _check_same_len(self, other: "Vector", op: str) -> None:
        if len(self) != len(other):
            raise DimensionError(f"cannot {op} vectors of length {len(self)} and {len(other)}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check_same_len(other, "add")
        return Vector._wrap(self._a + other._a)

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_same_len(other, "subtract")
        return Vector._wrap(self._a - other._a)

    def __mul__(self, scalar: float) -> "Vector":
        return Vector._wrap(self._a * float(scalar))

    __rmul__ = __mul__


def vector_norm(v: Vector) -> float:
    """Euclidean norm of ``v`` (serial accumulation, overflow-safe)."""
    return _norm2_arr(v.array)


def _seq_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product with each entry summed over the inner index in ascending order.

    Accumulates rank-one terms C += a[:, k] * b[k, :] for k = 0, 1, ...,
    which performs, per output entry, exactly the multiply/add sequence of
    the naive triple loop.
    """
    r, kk = a.shape
    c = b.shape[1]
    out = np.zeros((r, c))
    tmp = np.empty((r, c))
    for k in range(kk):
        np.multiply(a[:, k, None], b[k, None, :], out=tmp)
        out += tmp
    return out


def _seq_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product, ascending-index serial accumulation per entry.

    Bitwise identical to ``_seq_matmul(m, x[:, None])[:, 0]``: the cumsum
    performs the same ordered add chain per output entry.
    """
    return np.cumsum(m * x[None, :], axis=1)[:, -1]


def matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Matrix product with deterministic serial accumulation order."""
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    return DenseMatrix._wrap(_seq_matmul(a.array, b.array))


def mat_vec(a: DenseMatrix, v: Vector) -> Vector:
    """Matrix-vector product with the same accumulation order as matmul."""
    if a.cols != len(v):
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by vector of length {len(v)}"
        )
    return Vector._wrap(_seq_matvec(a.array, v.array))


def transpose(a: DenseMatrix) -> DenseMatrix:
    return DenseMatrix._wrap(np.ascontiguousarray(a.array.T))


def hconcat(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.rows != b.rows:
        raise DimensionError(
            f"cannot stack {a.rows}x{a.cols} beside {b.rows}x{b.cols}"
        )
    return DenseMatrix._wrap(np.hstack([a.array, b.array]))


def vconcat(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    if a.cols != b.cols:
        raise DimensionError(
            f"cannot stack {a.rows}x{a.cols} above {b.rows}x{b.cols}"
        )
    return DenseMatrix._wrap(np.vstack([a.array, b.array]))

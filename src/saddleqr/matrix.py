"""Dense matrix and vector types with deterministic arithmetic kernels.

``DenseMatrix`` and ``Vector`` share one immutable base: row-major 64-bit
float storage, checked for shape and finiteness at construction and
read-only afterwards.  This module is also the one home of the package's
serial sum and two-norm (``_seq_sum``, ``_norm2_arr``; a Frobenius norm is
the two-norm of the raveled array), of its max-|X| scaling (``_scaled``)
and of its symmetry check (``_is_symmetric``).

Determinism comes in two tiers.  The public ``matmul`` and ``mat_vec``,
and the two-norm, accumulate in a fixed serial order -- ascending inner
index -- so they are bitwise identical to the naive triple loop on every
run and at every thread count.  The package's internal products (QR,
block Gram-Schmidt, solves, norms, metrics, generators) use LAPACK, BLAS
and numpy ``@`` on the underlying arrays: their results are
byte-reproducible from run to run at a fixed BLAS thread count, but not
across thread counts.  Two kernels run on one thread at any count, so
their bytes do not depend on it: the small QRs that ``householder`` pins,
and the triangular solve, OpenBLAS ``dtrsv``, which has no threaded
variant.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonFiniteError

MACHINE_EPS = float(np.finfo(np.float64).eps)  # 2^-52, approx 2.22e-16


def _seq_sum(x: np.ndarray) -> float:
    """Sum of a 1-D array in strictly ascending index order."""
    if x.size == 0:
        return 0.0
    return float(np.cumsum(x)[-1])


def _scaled(xa: np.ndarray) -> tuple[float, np.ndarray]:
    """(s, X / s) with s = max|X|, clear of overflow and underflow.  The
    zero array gives (0, X); inf or NaN raises :class:`NonFiniteError`."""
    scale = float(np.max(np.abs(xa)))
    if not np.isfinite(scale):
        raise NonFiniteError("norm of a matrix that is not finite")
    return scale, (xa / scale if scale else xa)


def _norm2_arr(x: np.ndarray) -> float:
    """Two-norm with serial accumulation, scaled to avoid overflow."""
    scale, y = _scaled(x)
    return scale * float(np.sqrt(_seq_sum(y * y)))


def _is_symmetric(xa: np.ndarray) -> bool:
    """max |X - X^T| <= 10 eps ||X||_F entrywise (the Frobenius norm is a
    cheap upper bound for the spectral norm)."""
    return float(np.max(np.abs(xa - xa.T))) <= 10.0 * MACHINE_EPS * _norm2_arr(xa.ravel())


def _to_row_major(a: np.ndarray) -> np.ndarray:
    """The square F-ordered ``a`` as a C-ordered array in its own buffer, by swaps of 64 x 64
    block pairs (64 KB, cache-sized); ``a`` itself, which now reads A^T, is made read-only."""
    b = a.T  # the buffer read row-major: A^T until the swaps make it A
    for i in range(0, len(b), 64):
        for j in range(i, len(b), 64):
            u, v = b[i:i + 64, j:j + 64], b[j:j + 64, i:i + 64]
            v[...], u[...] = u.T, v.T.copy()
    a.setflags(write=False)
    return b


class _Immutable:
    """Read-only C-contiguous float64 array with ``_ndim`` dimensions, the
    shared base of DenseMatrix and Vector (``_kind`` names it in errors).
    ``_wrap`` turns an owned square F-ordered result row-major in its buffer."""

    __slots__ = ("_a",)

    def __init__(self, values):
        a = np.array(values, dtype=np.float64, order="C")
        if a.ndim != self._ndim:
            raise DimensionError(f"{self._kind} must be {self._ndim}-D, got {a.ndim}-D data")
        if min(a.shape) < 1:
            raise DimensionError(f"{self._kind} dimensions must be positive, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{self._kind} entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray):
        # Internal fast path: consumes a freshly computed array (see _to_row_major).
        obj = cls.__new__(cls)
        if not a.flags.c_contiguous:
            owned = a.flags.f_contiguous and a.flags.writeable and a.base is None
            a = _to_row_major(a) if owned and a.shape[0] == a.shape[-1] else np.ascontiguousarray(a)
        a.setflags(write=False)
        obj._a = a
        return obj

    @property
    def array(self) -> np.ndarray:
        """The underlying (read-only) float64 array."""
        return self._a

    def _check_same_shape(self, other, op: str) -> None:
        if self._a.shape != other._a.shape:
            raise DimensionError(f"cannot {op} {self!r} and {other!r}")

    def __add__(self, other):
        self._check_same_shape(other, "add")
        return self._wrap(self._a + other._a)

    def __sub__(self, other):
        self._check_same_shape(other, "subtract")
        return self._wrap(self._a - other._a)

    def __mul__(self, scalar: float):
        return self._wrap(self._a * float(scalar))

    __rmul__ = __mul__


class DenseMatrix(_Immutable):
    """Immutable row-major dense real matrix."""

    __slots__ = ()
    _ndim = 2
    _kind = "matrix"

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def __repr__(self) -> str:
        return f"DenseMatrix({self.rows}x{self.cols})"

    def __neg__(self) -> "DenseMatrix":
        return DenseMatrix._wrap(-self._a)

    def __truediv__(self, scalar: float) -> "DenseMatrix":
        return DenseMatrix._wrap(self._a / float(scalar))

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        return matmul(self, other)


class Vector(_Immutable):
    """Immutable dense real vector."""

    __slots__ = ()
    _ndim = 1
    _kind = "vector"

    def __len__(self) -> int:
        return self._a.shape[0]

    def __repr__(self) -> str:
        return f"Vector(len={len(self)})"

    def slice(self, i0: int, i1: int) -> "Vector":
        return Vector._wrap(self._a[i0:i1].copy())


def vector_norm(v: Vector) -> float:
    """Euclidean norm of ``v`` (serial accumulation, overflow-safe)."""
    return _norm2_arr(v.array)


def _seq_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product with each entry summed over the inner index in ascending order.

    Accumulates rank-one terms C += a[:, k] * b[k, :] for k = 0, 1, ...
    onto C = 0, which performs, per output entry, exactly the multiply/add
    sequence of the naive triple loop, signed zeros included.  The one
    serial product kernel: ``matmul`` and ``mat_vec`` both run on it.
    """
    r, kk = a.shape
    c = b.shape[1]
    out = np.zeros((r, c))
    tmp = np.empty((r, c))
    for k in range(kk):
        np.multiply(a[:, k, None], b[k, None, :], out=tmp)
        out += tmp
    return out


def matmul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Matrix product with deterministic serial accumulation order."""
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}"
        )
    return DenseMatrix._wrap(_seq_matmul(a.array, b.array))


def mat_vec(a: DenseMatrix, v: Vector) -> Vector:
    """Matrix-vector product on matmul's serial kernel, with v as one column."""
    if a.cols != len(v):
        raise DimensionError(
            f"cannot multiply {a.rows}x{a.cols} by vector of length {len(v)}"
        )
    return Vector._wrap(_seq_matmul(a.array, v.array[:, None])[:, 0])


"""Dense matrix and vector types with deterministic arithmetic kernels.

``DenseMatrix`` and ``Vector`` share one immutable base: contiguous 64-bit
float storage, read-only.  The public constructors copy their values
row-major and check shape and finiteness; results computed inside the
package keep the layout they are computed in (a QR's Q is F-order, its R
row-major).  This module is also the one home of the package's serial
sum and two-norm (``_seq_sum``, ``_norm2_arr``; a Frobenius norm is the
two-norm of the raveled array), of its max-|X| scaling (``_scaled``) and
of its symmetry check (``_is_symmetric``).

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
    return float(np.cumsum(x)[-1])


def _scaled(xa: np.ndarray, out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """(s, X / s) with s = max|X|, clear of overflow and underflow, in a
    fresh array or in ``out`` (which may be ``xa`` itself).  The zero array
    gives (0, X); inf or NaN raises :class:`NonFiniteError`."""
    scale = float(np.max(np.abs(xa)))
    if not np.isfinite(scale):
        raise NonFiniteError("norm of a matrix that is not finite")
    return scale, np.divide(xa, scale or 1.0, out=out)


def _norm2_arr(x: np.ndarray) -> float:
    """Two-norm with serial accumulation, scaled to avoid overflow."""
    scale, y = _scaled(x)
    return scale * float(np.sqrt(_seq_sum(y * y)))


def _is_symmetric(xa: np.ndarray) -> bool:
    """max |X - X^T| <= 10 eps ||X||_F entrywise for a square X (||X||_F bounds ||X||_2),
    over 256-row blocks in one block-size buffer; ||X||_F is ``_norm2_arr(X.ravel())``
    bit for bit, max|X| read without a temporary and the ``_seq_sum`` of (X / max|X|)^2
    carried from block to block.  inf or NaN raises :class:`NonFiniteError`."""
    scale, n = max(float(xa.max()), -float(xa.min())), len(xa)
    if not np.isfinite(scale):
        raise NonFiniteError("norm of a matrix that is not finite")
    buf = np.empty((min(256, n), n))
    skew = total = 0.0
    for i in range(0, n, 256):
        band = xa[i : i + 256]
        d = buf[: len(band)]
        np.subtract(band, xa[:, i : i + len(band)].T, out=d)
        skew = max(skew, float(np.max(np.abs(d, out=d))))
        np.square(np.divide(band, scale or 1.0, out=d), out=d)
        d[0, 0] += total
        total = float(np.cumsum(d, out=d.ravel())[-1])
    return skew <= 10.0 * MACHINE_EPS * (scale * float(np.sqrt(total)))


class _Immutable:
    """Read-only contiguous float64 array with ``_ndim`` dimensions, the
    shared base of DenseMatrix and Vector (``_kind`` names it in errors).
    The constructor copies its values row-major; ``_wrap`` keeps a computed
    C- or F-contiguous array in its layout and copies any other row-major."""

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
        # Internal fast path: owns a freshly computed array; no checks, no copy of a contiguous one.
        obj = cls.__new__(cls)
        if not (a.flags.c_contiguous or a.flags.f_contiguous):
            a = np.ascontiguousarray(a)
        a.setflags(write=False)
        obj._a = a
        return obj

    @property
    def array(self) -> np.ndarray:
        """The underlying (read-only) float64 array."""
        return self._a

    def __sub__(self, other):
        if self._a.shape != other._a.shape:
            raise DimensionError(f"cannot subtract {self!r} and {other!r}")
        return self._wrap(self._a - other._a)


class DenseMatrix(_Immutable):
    """Immutable dense real matrix, row-major when constructed; a computed
    result keeps its own layout."""

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


class Vector(_Immutable):
    """Immutable dense real vector."""

    __slots__ = ()
    _ndim = 1
    _kind = "vector"

    def __len__(self) -> int:
        return self._a.shape[0]

    def __repr__(self) -> str:
        return f"Vector(len={len(self)})"


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


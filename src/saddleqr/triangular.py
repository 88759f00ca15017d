"""Triangular solves and the Cholesky SPD certificate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ZeroDiagonalError
from .matrix import DenseMatrix, Vector, _is_symmetric, _seq_sum

_TINY = float(np.finfo(np.float64).tiny)


def _check_square(r: DenseMatrix, what: str) -> None:
    if r.rows != r.cols:
        raise DimensionError(f"{what} must be square, got {r.rows}x{r.cols}")


def _back_substitute_arr(ra: np.ndarray, g: np.ndarray) -> np.ndarray:
    small = np.flatnonzero(np.abs(np.diag(ra)) < _TINY)
    if small.size:
        raise ZeroDiagonalError(int(small[-1]))  # the row a bottom-up solve meets first
    n = ra.shape[0]
    z = np.empty(n)
    z[-1] = g[-1] / ra[-1, -1]
    # acc[i] sums ra[i, j] z[j] over swept columns j > i, descending; assigned first (keeps -0.0)
    acc = ra[:, -1] * z[-1]
    for j in range(n - 2, -1, -1):
        z[j] = (g[j] - acc[j]) / ra[j, j]
        acc[:j] += ra[:j, j] * z[j]
    return z


def back_substitute(r: DenseMatrix, g: Vector) -> Vector:
    """Solve the upper-triangular system R z = g.

    The inner accumulation runs over columns in descending order, fixed for
    bit-reproducibility.  A zero (or subnormal) diagonal entry raises
    :class:`ZeroDiagonalError` naming the bottom-most such row.
    """
    _check_square(r, "back_substitute matrix")
    if len(g) != r.rows:
        raise DimensionError(
            f"right-hand side length {len(g)} does not match {r.rows}x{r.cols} matrix"
        )
    ra = r.array
    if np.any(np.tril(ra, -1) != 0.0):
        raise ValueError("back_substitute requires an upper-triangular matrix")
    return Vector._wrap(_back_substitute_arr(ra, g.array))


@dataclass(frozen=True)
class CholeskyResult:
    """Outcome of a Cholesky attempt.

    ``factor`` is the lower-triangular L with A = L L^T on success and None
    when a nonpositive pivot was hit; ``failed_pivot`` is the 0-based index
    of that pivot.  ``min_pivot`` is the smallest pivot value seen (the
    offending value itself on failure).  Failure is a legitimate outcome
    (the matrix is simply not positive definite), not an exception.
    """

    factor: DenseMatrix | None
    failed_pivot: int | None
    min_pivot: float

    @property
    def ok(self) -> bool:
        return self.factor is not None


def cholesky(a: DenseMatrix) -> CholeskyResult:
    """Attempt A = L L^T for symmetric A; used as an SPD certificate.

    Requires A to be symmetric within 10 * eps * ||A||_F entrywise (see
    ``matrix._is_symmetric``).
    """
    _check_square(a, "cholesky matrix")
    aa = a.array
    if not _is_symmetric(aa):
        raise ValueError("cholesky requires a symmetric matrix")
    n = a.rows
    low = np.zeros((n, n))
    min_pivot = np.inf
    for j in range(n):
        pivot = aa[j, j] - _seq_sum(low[j, :j] * low[j, :j])
        min_pivot = min(min_pivot, pivot)
        if pivot <= 0.0:
            return CholeskyResult(factor=None, failed_pivot=j, min_pivot=pivot)
        ljj = float(np.sqrt(pivot))
        low[j, j] = ljj
        if j + 1 < n:
            rows = low[j + 1 :, :j] * low[j, :j][None, :]
            if j > 0:
                sums = np.cumsum(rows, axis=1)[:, -1]
            else:
                sums = np.zeros(n - j - 1)
            low[j + 1 :, j] = (aa[j + 1 :, j] - sums) / ljj
    return CholeskyResult(factor=DenseMatrix._wrap(low), failed_pivot=None, min_pivot=min_pivot)

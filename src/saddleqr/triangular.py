"""Triangular solves and the Cholesky SPD certificate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _openblas
from .errors import DimensionError, ZeroDiagonalError
from .matrix import DenseMatrix, Vector, _is_symmetric, _seq_sum

_TINY = float(np.finfo(np.float64).tiny)


def _check_square(r: DenseMatrix, what: str) -> None:
    if r.rows != r.cols:
        raise DimensionError(f"{what} must be square, got {r.rows}x{r.cols}")


def _column_sweep(ra: np.ndarray, g: np.ndarray) -> np.ndarray:
    """z of R z = g, R = ``ra`` upper triangular with a nonzero diagonal, by a
    sweep over the columns from the last: bitwise equal to the row oracle."""
    n = ra.shape[0]
    z = np.empty(n)
    z[-1] = g[-1] / ra[-1, -1]
    # acc[i] sums ra[i, j] z[j] over swept columns j > i, descending; assigned first (keeps -0.0)
    acc = ra[:, -1] * z[-1]
    for j in range(n - 2, -1, -1):
        z[j] = (g[j] - acc[j]) / ra[j, j]
        acc[:j] += ra[:j, j] * z[j]
    return z


def _back_substitute_arr(ra: np.ndarray, g: np.ndarray) -> np.ndarray:
    """z of R z = g for the upper-triangular ``ra``, as a new array: BLAS
    ``dtrsv`` of numpy's bundled OpenBLAS on a copy of g, or ``_column_sweep``
    without that library.  Neither ``ra`` nor ``g`` is written."""
    n = len(ra)
    if ra.shape != (n, n) or g.shape != (n,):  # dtrsv would read and write past them
        raise DimensionError(f"cannot solve a {ra.shape} system for a {g.shape} right-hand side")
    small = np.flatnonzero(np.abs(np.diag(ra)) < _TINY)
    if small.size:
        raise ZeroDiagonalError(int(small[-1]))  # the row a bottom-up solve meets first
    if _openblas.library() is None:
        return _column_sweep(ra, g)
    z = np.array(g, dtype=np.float64)
    _openblas.dtrsv(np.ascontiguousarray(ra, dtype=np.float64), z)
    return z


def back_substitute(r: DenseMatrix, g: Vector) -> Vector:
    """Solve the upper-triangular system R z = g.

    The solve is BLAS ``dtrsv`` of numpy's bundled OpenBLAS, which is
    backward stable and has no threaded variant, so z does not depend on
    the BLAS thread count.  On a numpy build without that library a sweep
    over the columns from the last runs instead, bitwise equal to the
    row-by-row loop.  A zero (or subnormal) diagonal entry raises
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
    of that pivot.  ``min_pivot`` is min(diag L)^2 on success and the
    offending pivot value itself on failure.  Failure is a legitimate outcome
    (the matrix is simply not positive definite), not an exception.
    """

    factor: DenseMatrix | None
    failed_pivot: int | None
    min_pivot: float

    @property
    def ok(self) -> bool:
        return self.factor is not None


def _factor(aa: np.ndarray) -> np.ndarray | None:
    """LAPACK ``dpotrf`` factor L of ``aa``, or None if a pivot is not positive."""
    try:
        return np.linalg.cholesky(aa)
    except np.linalg.LinAlgError:
        return None


def cholesky(a: DenseMatrix) -> CholeskyResult:
    """Attempt A = L L^T for symmetric A by LAPACK ``dpotrf`` (Golub & Van
    Loan, Matrix Computations, 4.2); used as an SPD certificate.

    On failure, bisection over leading blocks with the same call finds the
    first order k + 1 that fails; its pivot is a_kk - ||l_k||^2 with
    L_k l_k = A[:k, k], L_k the factor of the leading k x k block.
    Requires A to be symmetric within 10 * eps * ||A||_F entrywise (see
    ``matrix._is_symmetric``).
    """
    _check_square(a, "cholesky matrix")
    aa = a.array
    if not _is_symmetric(aa):
        raise ValueError("cholesky requires a symmetric matrix")
    low = _factor(aa)
    if low is not None:
        min_pivot = float(np.min(np.diag(low))) ** 2
        return CholeskyResult(factor=DenseMatrix._wrap(low), failed_pivot=None, min_pivot=min_pivot)
    # The leading block of order k factors (as `low` once k > 0); order `bad` fails.
    k, bad = 0, a.rows
    while bad - k > 1:
        mid = (k + bad) // 2
        trial = _factor(aa[:mid, :mid])
        if trial is None:
            bad = mid
        else:
            k, low = mid, trial
    pivot = float(aa[k, k])
    if k:
        # L_k l_k = A[:k, k] reversed in both indices is upper triangular.
        l_k = _back_substitute_arr(low[::-1, ::-1], aa[k - 1 :: -1, k])[::-1]
        pivot -= _seq_sum(l_k * l_k)
    return CholeskyResult(factor=None, failed_pivot=k, min_pivot=pivot)

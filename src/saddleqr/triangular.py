"""The triangular solve R z = g of every QR solve."""

from __future__ import annotations

import numpy as np

from . import _openblas
from .errors import DimensionError, ZeroDiagonalError

_TINY = float(np.finfo(np.float64).tiny)


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
    ``dtrsv`` of numpy's bundled OpenBLAS, unthreaded, on a copy of g, or
    ``_column_sweep`` without that library.  Neither ``ra`` nor ``g`` is written."""
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


"""Spectral norm, inverse norm and condition number by direct LAPACK calls
(``dsyevd`` and ``numpy.linalg.svd``).  Nothing iterates in Python: each
call returns a value accurate to rounding or raises a typed LinAlgError.

``_eigvalsh`` is the package's one symmetric eigensolver.  It calls LAPACKE
``dsyevd`` of numpy's bundled OpenBLAS through ctypes, which releases the
GIL for the call, so two threads can run two eigensolves at once (``bench``
pairs a row's metric eigensolves that way).  Its bytes equal
``numpy.linalg.eigvalsh``'s, the same LAPACK routine, which is its path
without the bundled library."""

from __future__ import annotations

import numpy as np

from . import householder
from .errors import (DimensionError, LinAlgError, NonConvergedError, NonFiniteError,
                     SingularMatrixError)
from .matrix import MACHINE_EPS, DenseMatrix, _scaled

_COLUMN_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR

# M is singular to working precision when sigma_min <= this factor times
# sigma_max, or sigma_min is not a normal float.  Far below rounding noise,
# so kappa near 1/eps is still reported; no kappa that passes can overflow.
_SINGULAR_GATE_FACTOR = 1e-3 * MACHINE_EPS


def _converged(routine, a: np.ndarray) -> np.ndarray:
    """``routine(a)``, a LAPACK convergence failure raised as NonConvergedError."""
    try:
        return routine(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergedError(f"LAPACK did not converge: {exc}") from exc


def _eigvalsh(y: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix in the writable,
    contiguous float64 ``y``, which it overwrites.  dsyevd reads the lower
    triangle of y's column-major storage: y's own lower triangle when y is
    F-ordered, as ``numpy.linalg.eigvalsh`` reads it, and its upper triangle
    when y is C-ordered, the same numbers for an exactly symmetric y.
    INFO > 0 raises :class:`NonConvergedError`, INFO < 0 :class:`LinAlgError`."""
    if y.dtype != np.float64 or not (y.flags.writeable and
                                     (y.flags.c_contiguous or y.flags.f_contiguous)):
        raise ValueError("the eigensolver needs a writable, contiguous float64 array")
    lib = householder._openblas()
    if lib is None:
        return _converged(np.linalg.eigvalsh, y)
    n, w = y.shape[0], np.empty(y.shape[0])
    info = lib.scipy_LAPACKE_dsyevd64_(_COLUMN_MAJOR, b"N", b"L", n, y.ctypes.data, max(1, n),
                                       w.ctypes.data)
    if info > 0:
        raise NonConvergedError(f"LAPACK did not converge: dsyevd INFO = {info}")
    if info < 0:
        raise LinAlgError(f"dsyevd: argument {-info} is illegal")
    return w


def _finite_norm(value: float) -> float:
    """``value``, or :class:`NonFiniteError` if it is past the float range."""
    if not np.isfinite(value):
        raise NonFiniteError("spectral norm is not finite")
    return value


def _extreme_singular_values(xa: np.ndarray) -> tuple[float, float]:
    """(sigma_max, sigma_min) of X from Y = X / max|X|: |eigvalsh(Y)| when
    X is exactly symmetric (Golub & Van Loan, Matrix Computations, 8.1),
    else ``svd(Y)``.  A sigma_max past the float range raises
    :class:`NonFiniteError`."""
    symmetric = np.array_equal(xa, xa.T)
    scale, y = _scaled(xa)
    if symmetric:
        sv = np.abs(_eigvalsh(y))
    else:
        sv = _converged(lambda a: np.linalg.svd(a, compute_uv=False), y)
    return _finite_norm(scale * float(np.max(sv))), scale * float(np.min(sv))


def _nonsingular(sigma_max: float, sigma_min: float) -> float:
    """``sigma_min``, or :class:`SingularMatrixError` if the gate rejects it."""
    if sigma_min <= _SINGULAR_GATE_FACTOR * sigma_max or not sigma_min >= np.finfo(float).tiny:
        raise SingularMatrixError("singular-to-working-precision")
    return sigma_min


def _gram_norm(xa: np.ndarray, overwrite: bool = False) -> float:
    """Two-norm of any raw array, scale * sqrt(lambda_max) of the Gram
    matrix of Y = X / scale on the smaller side of X, with no symmetry scan:
    for operands such as M - Q R, which are not symmetric by construction.
    With ``overwrite`` X is scaled in place."""
    scale, y = _scaled(xa, xa if overwrite else None)
    gram = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
    return _finite_norm(scale * float(np.sqrt(max(_eigvalsh(gram)[-1], 0.0))))


def _two_norm(xa: np.ndarray, overwrite: bool = False) -> float:
    """:func:`spectral_norm` of a raw array: one symmetry scan, one scaling
    and one eigensolve, all in X itself with ``overwrite``."""
    if not np.array_equal(xa, xa.T):
        return _gram_norm(xa, overwrite)
    scale, y = _scaled(xa, xa if overwrite else None)
    return _finite_norm(scale * float(np.max(np.abs(_eigvalsh(y)))))


def spectral_norm(x: DenseMatrix) -> float:
    """Two-norm of ``x``: its largest |eigenvalue| if it is symmetric, else
    scale * sqrt(lambda_max(Y^T Y)), Y = X / scale, scale = max|X|, with the
    Gram matrix on the smaller side of X (cheaper than an SVD, as for the
    defect M - QR).  The zero matrix returns 0; inf or NaN input, or a norm
    past the float range, raises :class:`NonFiniteError`."""
    return _two_norm(x.array)


def inverse_norm(m: DenseMatrix) -> float:
    """1 / sigma_min(M), which is ||M^{-1}|| for square M.  Raises
    :class:`SingularMatrixError` if M is singular to working precision;
    M must have at least as many rows as columns."""
    if m.rows < m.cols:
        raise DimensionError(f"inverse_norm needs rows >= cols, got {m.rows}x{m.cols}")
    return 1.0 / _nonsingular(*_extreme_singular_values(m.array))


def condition_number(m: DenseMatrix) -> float:
    """kappa(M) = sigma_max(M) / sigma_min(M).  Raises
    :class:`SingularMatrixError` if M is singular to working precision."""
    sigma_max, sigma_min = _extreme_singular_values(m.array)
    return sigma_max / _nonsingular(sigma_max, sigma_min)

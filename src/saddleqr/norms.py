"""Spectral norm, inverse norm and condition number by direct LAPACK calls
(``numpy.linalg.eigvalsh`` and ``svd``).  Nothing iterates in Python: each
call returns a value accurate to rounding or raises a typed LinAlgError."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NonConvergedError, NonFiniteError, SingularMatrixError
from .matrix import MACHINE_EPS, DenseMatrix, _scaled

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
        sv = np.abs(_converged(np.linalg.eigvalsh, y))
    else:
        sv = _converged(lambda a: np.linalg.svd(a, compute_uv=False), y)
    return _finite_norm(scale * float(np.max(sv))), scale * float(np.min(sv))


def _nonsingular(sigma_max: float, sigma_min: float) -> float:
    """``sigma_min``, or :class:`SingularMatrixError` if the gate rejects it."""
    if sigma_min <= _SINGULAR_GATE_FACTOR * sigma_max or not sigma_min >= np.finfo(float).tiny:
        raise SingularMatrixError("singular-to-working-precision")
    return sigma_min


def _gram_norm(xa: np.ndarray) -> float:
    """Two-norm of any raw array, scale * sqrt(lambda_max) of the Gram
    matrix of Y = X / scale on the smaller side of X, with no symmetry scan:
    for operands such as M - Q R, which are not symmetric by construction."""
    scale, y = _scaled(xa)
    gram = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
    return _finite_norm(scale * float(np.sqrt(max(_converged(np.linalg.eigvalsh, gram)[-1], 0.0))))


def _two_norm(xa: np.ndarray) -> float:
    """:func:`spectral_norm` of a raw array: one symmetry scan, one scaling
    and one eigensolve."""
    if not np.array_equal(xa, xa.T):
        return _gram_norm(xa)
    scale, y = _scaled(xa)
    return _finite_norm(scale * float(np.max(np.abs(_converged(np.linalg.eigvalsh, y)))))


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

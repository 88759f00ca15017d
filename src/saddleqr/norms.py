"""Spectral norm, inverse norm and condition number by direct LAPACK calls
(``numpy.linalg.eigvalsh`` and ``svd``).  Nothing iterates in Python: each
call returns a value accurate to rounding or raises a typed LinAlgError."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonConvergedError, NonFiniteError, RankDeficientError
from .errors import SingularMatrixError
from .matrix import MACHINE_EPS, DenseMatrix, transpose

# Gate for declaring a QR diagonal "zero" before the singular values of R
# are taken.  Deliberately far below rounding noise so that matrices
# conditioned near 1/eps still get a kappa; only pivots that collapsed
# essentially to zero trip it.
_SINGULAR_GATE_FACTOR = 1e-2 * MACHINE_EPS


@dataclass(frozen=True)
class NormEstimate:
    """A nonnegative norm value.  LAPACK computes it directly, so
    ``iterations`` is always 0 and ``converged`` always true."""

    value: float
    iterations: int
    converged: bool


def _lapack(routine, a: np.ndarray) -> np.ndarray:
    """``routine(a)``, a LAPACK convergence failure raised as NonConvergedError."""
    try:
        return routine(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergedError(f"LAPACK did not converge: {exc}") from exc


def spectral_norm(x: DenseMatrix) -> NormEstimate:
    """Two-norm of ``x`` as scale * sqrt(lambda_max(Y^T Y)), Y = X / scale.

    Dividing by scale = max|X| keeps the Gram matrix, taken on the smaller
    side of X, clear of overflow and underflow.  The zero matrix returns
    0.  A matrix holding inf or NaN, or a norm past the float range,
    raises :class:`NonFiniteError`.
    """
    xa = x.array
    scale = float(np.max(np.abs(xa)))
    if scale == 0.0:
        return NormEstimate(0.0, 0, True)
    if not np.isfinite(scale):
        raise NonFiniteError("spectral norm of a matrix that is not finite")
    y = xa / scale
    gram = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
    value = scale * float(np.sqrt(max(_lapack(np.linalg.eigvalsh, gram)[-1], 0.0)))
    if not np.isfinite(value):
        raise NonFiniteError("spectral norm is not finite")
    return NormEstimate(value, 0, True)


def _r_singular_values(m: DenseMatrix) -> np.ndarray:
    """Singular values, descending, of M (rows >= cols), taken from the R
    of its Householder QR.  Raises :class:`SingularMatrixError` if M is
    singular to working precision: a QR diagonal collapses essentially to
    zero, or sigma_min is not a normal float.  The QR's reflectors are
    scaled, so a subnormal pivot reaches these tests instead of failing in
    the QR.
    """
    from .householder import thin_householder_qr

    try:
        fac = thin_householder_qr(m, rank_tol=0.0)
    except RankDeficientError as exc:
        raise SingularMatrixError("singular-to-working-precision") from exc
    ra = fac.r.array
    gate = _SINGULAR_GATE_FACTOR * float(np.max(np.abs(ra)))
    if float(np.min(np.abs(np.diag(ra)))) <= gate:
        raise SingularMatrixError("singular-to-working-precision")
    sv = _lapack(lambda a: np.linalg.svd(a, compute_uv=False), ra)
    if not sv[-1] >= np.finfo(np.float64).tiny:
        raise SingularMatrixError("singular-to-working-precision")
    return sv


def inverse_norm(m: DenseMatrix) -> NormEstimate:
    """1 / sigma_min(M), which is ||M^{-1}|| for square M.  Raises
    :class:`SingularMatrixError` if M is singular to working precision;
    M must have at least as many rows as columns."""
    if m.rows < m.cols:
        raise DimensionError(f"inverse_norm needs rows >= cols, got {m.rows}x{m.cols}")
    return NormEstimate(1.0 / float(_r_singular_values(m)[-1]), 0, True)


def condition_number(m: DenseMatrix) -> NormEstimate:
    """kappa(M) = sigma_max(M) / sigma_min(M), from the singular values of
    the R factor of M (transposed first if it is wider than tall)."""
    sv = _r_singular_values(transpose(m) if m.rows < m.cols else m)
    kappa = float(sv[0]) / float(sv[-1])
    if not np.isfinite(kappa):
        raise NonFiniteError("condition number overflowed")
    return NormEstimate(kappa, 0, True)

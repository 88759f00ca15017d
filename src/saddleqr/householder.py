"""Thin Householder QR with positive-diagonal normalization.

The factorization is LAPACK's ``dgeqrf`` followed by ``dorgqr`` (through
``numpy.linalg.qr``): a blocked right-looking compact-WY Householder QR
(Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989) whose
reflectors ``dlarfg`` scales, so any finite input factors without
overflow or underflow in the reflectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteError, RankDeficientError
from .matrix import MACHINE_EPS, DenseMatrix, _scaled


@dataclass(frozen=True)
class ThinQR:
    """Factorization X = Q R with left-orthogonal Q (l x k) and upper
    triangular R (k x k) whose diagonal is positive.  Entries of R strictly
    below the diagonal are exactly zero."""

    q: DenseMatrix
    r: DenseMatrix


def _fix_signs(q: np.ndarray, r: np.ndarray) -> None:
    """Negate row i of R and column i of Q wherever R_ii < 0 (in place)."""
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    r *= sign[:, None]
    q *= sign


def default_rank_tol(x: DenseMatrix) -> float:
    """Scale-invariant rank threshold: eps * sqrt(l) * max column norm.

    The max column norm is a lower bound on the spectral norm, so this is
    deliberately permissive: severely ill-conditioned but numerically
    invertible inputs factor cleanly, while exactly dependent columns
    (pivot collapsing to rounding noise) are still caught.  Columns are
    measured as scale * ||Y e_j|| with Y = X / scale, scale = max|X|, so
    the norms neither overflow nor underflow.
    """
    scale, y = _scaled(x.array)
    max_col = scale * float(np.sqrt(np.max(np.sum(y * y, axis=0))))
    return MACHINE_EPS * float(np.sqrt(x.rows)) * max_col


def thin_householder_qr(x: DenseMatrix) -> ThinQR:
    """Thin Householder QR of an l x k matrix with l >= k.

    A final sign pass makes every diagonal entry of R positive, which pins
    down the unique positive-diagonal thin QR of a full-column-rank input.
    |R_jj| is the norm of column j after the first j reflectors; the first
    j with |R_jj| <= ``default_rank_tol(x)`` raises
    :class:`RankDeficientError` naming column j.
    Input holding inf or NaN, or a factor that is not finite, raises
    :class:`NonFiniteError`.
    """
    if x.rows < x.cols:
        raise DimensionError(f"thin QR needs rows >= cols, got {x.rows}x{x.cols}")
    xa = x.array
    if not np.isfinite(xa).all():
        raise NonFiniteError("QR of a matrix that is not finite")
    q, r = np.linalg.qr(xa, mode="reduced")
    if not (np.isfinite(q).all() and np.isfinite(r).all()):
        raise NonFiniteError("QR factor is not finite")
    small = np.flatnonzero(np.abs(np.diag(r)) <= default_rank_tol(x))
    if small.size:
        raise RankDeficientError(column=int(small[0]))
    _fix_signs(q, r)
    return ThinQR(q=DenseMatrix._wrap(q), r=DenseMatrix._wrap(r))

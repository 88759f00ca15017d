"""Thin Householder QR with positive-diagonal normalization.

The factorization is blocked and right-looking in compact-WY form
(Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989): the product
of the reflectors of one panel is I - V T V^T with V holding the panel's
reflector vectors and T upper triangular, so the update of the trailing
columns and the accumulation of Q are matrix-matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteError, RankDeficientError
from .matrix import MACHINE_EPS, DenseMatrix, _norm2_arr

# Reflectors per compact-WY panel.
PANEL_WIDTH = 32


@dataclass(frozen=True)
class ThinQR:
    """Factorization X = Q R with left-orthogonal Q (l x k) and upper
    triangular R (k x k) whose diagonal is positive.  Entries of R strictly
    below the diagonal are exactly zero."""

    q: DenseMatrix
    r: DenseMatrix


def _reflectors(xa: np.ndarray, rank_tol: float):
    """Reduce xa to triangular form, returning (R, V, T).

    Reflector j is H_j = I - tau_j v_j v_j^T with v_j = x + sign(x_0) ||x|| e_0
    (sign(0) = +1) and tau_j = 2 / ||v_j||^2, where x is the fully updated
    column j on rows j..l-1.  Column j of V holds v_j on those rows and zeros
    above.  T is block diagonal with one upper-triangular compact-WY factor
    per panel, H_j0 ... H_j1-1 = I - V_p T_p V_p^T; its diagonal holds the
    tau_j.  A pivot column whose trailing norm is <= rank_tol raises
    RankDeficientError naming the column.
    """
    l, k = xa.shape
    w = np.array(xa, order="F")
    v_all = np.zeros((l, k), order="F")
    t_all = np.zeros((k, k))
    for j0 in range(0, k, PANEL_WIDTH):
        j1 = min(j0 + PANEL_WIDTH, k)
        for j in range(j0, j1):
            x = w[j:, j]
            pivot_norm = _norm2_arr(x)
            if pivot_norm <= rank_tol:
                raise RankDeficientError(column=j)
            x0 = float(x[0])
            sign = 1.0 if x0 >= 0.0 else -1.0
            v = v_all[j:, j]
            v[:] = x
            v[0] += sign * pivot_norm
            # ||v||^2 = 2 ||x|| (||x|| + |x_0|), a sum of like-signed terms.
            half_vtv = pivot_norm * (pivot_norm + abs(x0))
            if not 0.0 < half_vtv < np.inf:
                raise NonFiniteError(f"reflector {j} has a squared norm out of range")
            tau = 1.0 / half_vtv
            t_all[j, j] = tau
            w[j, j] = -sign * pivot_norm
            w[j + 1 :, j] = 0.0
            slab = w[j:, j + 1 : j1]
            slab -= np.outer(tau * v, v @ slab)
        vp = v_all[j0:, j0:j1]
        tp = t_all[j0:j1, j0:j1]
        for i in range(1, j1 - j0):
            tp[:i, i] = -tp[i, i] * (tp[:i, :i] @ (vp[:, :i].T @ vp[:, i]))
        trailing = w[j0:, j1:]
        trailing -= vp @ (tp.T @ (vp.T @ trailing))
    return np.triu(w[:k, :k]), v_all, t_all


def _accumulate_q(v_all: np.ndarray, t_all: np.ndarray) -> np.ndarray:
    """Form Q = H_0 ... H_k-1 E explicitly, E the first k identity columns.

    Panels are applied in reverse, so the active block grows from the
    bottom right: columns left of a panel are still identity columns with
    zeros on the panel's rows.
    """
    l, k = v_all.shape
    q = np.zeros((l, k), order="F")
    q[:k, :k] = np.eye(k)
    for j0 in reversed(range(0, k, PANEL_WIDTH)):
        j1 = min(j0 + PANEL_WIDTH, k)
        vp = v_all[j0:, j0:j1]
        active = q[j0:, j0:]
        active -= vp @ (t_all[j0:j1, j0:j1] @ (vp.T @ active))
    return q


def _fix_signs(q: np.ndarray, r: np.ndarray) -> None:
    """Negate row i of R and column i of Q wherever R_ii < 0 (in place)."""
    neg = np.diag(r) < 0.0
    r[neg, :] = -r[neg, :]
    q[:, neg] = -q[:, neg]


def default_rank_tol(x: DenseMatrix) -> float:
    """Scale-invariant rank threshold: eps * sqrt(l) * max column norm.

    The max column norm is a lower bound on the spectral norm, so this is
    deliberately permissive: severely ill-conditioned but numerically
    invertible inputs factor cleanly, while exactly dependent columns
    (pivot collapsing to rounding noise) are still caught.
    """
    xa = x.array
    max_col = max(_norm2_arr(xa[:, j]) for j in range(x.cols))
    return MACHINE_EPS * float(np.sqrt(x.rows)) * max_col


def thin_householder_qr(x: DenseMatrix, *, rank_tol: float | None = None) -> ThinQR:
    """Thin Householder QR of an l x k matrix with l >= k.

    Reflectors are computed left to right in panels of ``PANEL_WIDTH``
    columns; Q is formed explicitly by applying the panels' compact-WY
    blocks to the first k columns of the identity.  A final sign pass
    makes every diagonal entry of R positive, which pins down the unique
    positive-diagonal thin QR of a full-column-rank input.

    ``rank_tol`` overrides the pivot threshold (see ``default_rank_tol``);
    pass 0.0 to fail only on exactly zero pivots.  A reflector whose
    squared norm leaves the floating-point range raises
    :class:`NonFiniteError`.
    """
    if x.rows < x.cols:
        raise DimensionError(f"thin QR needs rows >= cols, got {x.rows}x{x.cols}")
    if rank_tol is None:
        rank_tol = default_rank_tol(x)
    r, v_all, t_all = _reflectors(x.array, rank_tol)
    q = _accumulate_q(v_all, t_all)
    _fix_signs(q, r)
    return ThinQR(q=DenseMatrix._wrap(q), r=DenseMatrix._wrap(r))

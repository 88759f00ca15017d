"""Thin Householder QR with positive-diagonal normalization.

The factorization is LAPACK's ``dgeqrf`` followed by ``dorgqr``: a blocked
right-looking compact-WY Householder QR (Schreiber & Van Loan, SIAM J.
Sci. Stat. Comput. 10, 1989) whose reflectors ``dlarfg`` scales, so any
finite input factors without overflow or underflow in the reflectors.
Both run column-major on a Fortran-order panel that becomes Q, through
the bindings of ``_openblas``, which check the panel's layout and choose
the door: LAPACKE, or numpy's own LAPACK on a build without the bundled
OpenBLAS, with byte-equal Q and R.

A QR that needs at most ``_ONE_THREAD_FLOPS`` flops (4 l k^2 - 4 k^3 / 3
for both routines), square or not, factors on one OpenBLAS thread: the
level-2 panel kernels of ``dgeqrf``/``dorgqr`` make a threaded
``dgemv``/``dger`` call per column, and at these sizes each hand-off
between threads costs more than the other threads save.  Its bytes
therefore do not depend on the BLAS thread count.  Larger QRs keep the
caller's count.

``_qr_in_place`` is the one kernel: it factors an F-order panel where it
lies (the block Gram-Schmidt panels are column slices of their Q); ``_thin_qr``
runs it on an F copy, and ``thin_householder_qr`` wraps that.  Its R step,
``_r_in_place``, runs alone where only R's checks are read (``validate``'s
rank certificate), and forms no Q.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import _openblas
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


# A QR factors on one OpenBLAS thread up to this many flops of dgeqrf +
# dorgqr: above the presets' largest thin panel (1500 x 500, 1.33e9) and
# below the squares from l = 800 (1.37e9), which lose on one thread
# (README's Determinism section has the per-shape table).
_ONE_THREAD_FLOPS = 1.35e9


def _pins_one_thread(l: int, k: int) -> bool:
    """Whether an l x k QR factors on one OpenBLAS thread."""
    return 4 * l * k * k - 4 * k**3 / 3 <= _ONE_THREAD_FLOPS


def default_rank_tol(xa: np.ndarray) -> float:
    """Scale-invariant rank threshold: eps * sqrt(l) * max column norm.

    The max column norm is a lower bound on the spectral norm, so this is
    deliberately permissive: severely ill-conditioned but numerically
    invertible inputs factor cleanly, while exactly dependent columns
    (pivot collapsing to rounding noise) are still caught.  Columns are
    measured as scale * ||Y e_j|| with Y = X / scale, scale = max|X|, so
    the norms neither overflow nor underflow.
    """
    scale, y = _scaled(xa)
    if not scale:
        return 0.0
    np.square(y, out=y)  # y = X / scale is a fresh array: square it in place
    max_col = scale * float(np.sqrt(np.max(np.sum(y, axis=0))))
    return MACHINE_EPS * float(np.sqrt(xa.shape[0])) * max_col


def _pin(l: int, k: int):
    """The thread pin of an l x k QR: ``_openblas.one_thread()`` or a no-op."""
    return _openblas.one_thread() if _pins_one_thread(l, k) else contextlib.nullcontext()


def _r_in_place(a: np.ndarray, step: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The R step of the checked thin QR of the writable, F-contiguous float64 l x k ``a``:
    the rank tolerance, ``dgeqrf`` in place, R's finiteness and the rank gate (a failure
    names ``step``).  Returns (R, tau), R before the sign pass; ``a`` is left holding the
    reflectors.  Any other layout, which LAPACK would misread, raises ``ValueError`` from
    the binding, before anything is written."""
    l, k = a.shape
    if l < k:
        raise DimensionError(f"thin QR needs rows >= cols, got {l}x{k}")
    tol = default_rank_tol(a)  # of the panel, before LAPACK overwrites it; raises on inf/NaN
    with _pin(l, k):
        tau = np.empty(k)
        _openblas.dgeqrf(a, tau)
    r = np.triu(a[:k])
    if not np.isfinite(r).all():
        raise NonFiniteError("QR factor is not finite")
    small = np.flatnonzero(np.abs(np.diag(r)) <= tol)
    if small.size:
        raise RankDeficientError(column=int(small[0]), step=step)
    return r, tau


def _qr_in_place(a: np.ndarray, step: str | None = None) -> np.ndarray:
    """Overwrite the writable, F-contiguous float64 l x k ``a``, such as a column slice of an
    F-order array, with the Q of its checked thin QR and return R: the R step
    (``_r_in_place``), then the Q step, ``dorgqr``, Q's finiteness and the sign pass
    (``thin_householder_qr`` has the checks)."""
    with _pin(*a.shape):
        r, tau = _r_in_place(a, step)
        _openblas.dorgqr(a, tau)
    if not np.isfinite(a).all():
        raise NonFiniteError("QR factor is not finite")
    _fix_signs(a, r)
    return r


def _thin_qr(xa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, R) of ``_qr_in_place`` on an F-order copy of the raw ``xa``."""
    q = np.array(xa, dtype=np.float64, order="F")
    return q, _qr_in_place(q)


def thin_householder_qr(x: DenseMatrix) -> ThinQR:
    """Thin Householder QR of an l x k matrix with l >= k.

    A final sign pass makes every diagonal entry of R positive, which pins
    down the unique positive-diagonal thin QR of a full-column-rank input.
    |R_jj| is the norm of column j after the first j reflectors; the first
    j with |R_jj| <= ``default_rank_tol(x.array)`` raises
    :class:`RankDeficientError` naming column j.
    Input holding inf or NaN, or a factor that is not finite, raises
    :class:`NonFiniteError`.  A QR of at most 1.35e9 flops, square or
    not, factors on one OpenBLAS thread (see the module docstring).
    """
    q, r = _thin_qr(x.array)
    return ThinQR(q=DenseMatrix._wrap(q), r=DenseMatrix._wrap(r))

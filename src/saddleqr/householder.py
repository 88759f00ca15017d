"""Thin Householder QR with positive-diagonal normalization.

The factorization is LAPACK's ``dgeqrf`` followed by ``dorgqr`` (through
``numpy.linalg.qr``): a blocked right-looking compact-WY Householder QR
(Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989) whose
reflectors ``dlarfg`` scales, so any finite input factors without
overflow or underflow in the reflectors.

A panel at most half as wide as it is tall (2 k <= l) factors on one
OpenBLAS thread: the level-2 panel kernels of ``dgeqrf``/``dorgqr`` make a
threaded ``dgemv``/``dger`` call per column, and on such panels each
hand-off between threads costs more than the other threads save.  Its
bytes therefore do not depend on the BLAS thread count.  Wider and square
matrices keep the default thread count.

``_thin_qr`` is the one kernel, on a raw and possibly strided array (the
block Gram-Schmidt panels); ``thin_householder_qr`` wraps it for the
public boundary.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
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


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count calls of numpy's bundled OpenBLAS, or
    None when numpy bundles none or it lacks them."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the count after it,
    also when it raises; without a bundled OpenBLAS it does nothing.  The
    count is process-wide, so BLAS calls from other threads meanwhile run
    on one thread too."""
    calls = _openblas_threads()
    before = calls[0]() if calls else 1
    if before == 1:
        yield
        return
    calls[1](1)
    try:
        yield
    finally:
        calls[1](before)


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
    max_col = scale * float(np.sqrt(np.max(np.sum(y * y, axis=0))))
    return MACHINE_EPS * float(np.sqrt(xa.shape[0])) * max_col


def _thin_qr(xa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checked thin QR (Q, R) of the raw l x k array ``xa``, which may
    be a strided view; ``thin_householder_qr`` documents the checks."""
    l, k = xa.shape
    if l < k:
        raise DimensionError(f"thin QR needs rows >= cols, got {l}x{k}")
    if not np.isfinite(xa).all():
        raise NonFiniteError("QR of a matrix that is not finite")
    pin = _one_blas_thread() if 2 * k <= l else contextlib.nullcontext()
    with pin:
        q, r = np.linalg.qr(xa, mode="reduced")
    if not (np.isfinite(q).all() and np.isfinite(r).all()):
        raise NonFiniteError("QR factor is not finite")
    small = np.flatnonzero(np.abs(np.diag(r)) <= default_rank_tol(xa))
    if small.size:
        raise RankDeficientError(column=int(small[0]))
    _fix_signs(q, r)
    return q, r


def thin_householder_qr(x: DenseMatrix) -> ThinQR:
    """Thin Householder QR of an l x k matrix with l >= k.

    A final sign pass makes every diagonal entry of R positive, which pins
    down the unique positive-diagonal thin QR of a full-column-rank input.
    |R_jj| is the norm of column j after the first j reflectors; the first
    j with |R_jj| <= ``default_rank_tol(x.array)`` raises
    :class:`RankDeficientError` naming column j.
    Input holding inf or NaN, or a factor that is not finite, raises
    :class:`NonFiniteError`.  A panel with 2 k <= l factors on one OpenBLAS
    thread (see the module docstring).
    """
    q, r = _thin_qr(x.array)
    return ThinQR(q=DenseMatrix._wrap(q), r=DenseMatrix._wrap(r))

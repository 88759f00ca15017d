"""Thin Householder QR with positive-diagonal normalization.

The factorization is LAPACK's ``dgeqrf`` followed by ``dorgqr``: a blocked
right-looking compact-WY Householder QR (Schreiber & Van Loan, SIAM J.
Sci. Stat. Comput. 10, 1989) whose reflectors ``dlarfg`` scales, so any
finite input factors without overflow or underflow in the reflectors.
Both routines are called through ``numpy.linalg.lapack_lite``, which
links them from the LAPACK numpy is built with, on a Fortran-order panel
that becomes Q; every numpy build runs this one path.

A QR that needs at most ``_ONE_THREAD_FLOPS`` flops (4 l k^2 - 4 k^3 / 3
for both routines), square or not, factors on one OpenBLAS thread: the
level-2 panel kernels of ``dgeqrf``/``dorgqr`` make a threaded
``dgemv``/``dger`` call per column, and at these sizes each hand-off
between threads costs more than the other threads save.  Its bytes
therefore do not depend on the BLAS thread count.  Larger QRs keep the
caller's count.

``_qr_in_place`` is the one kernel: it factors an F-order panel where it
lies (the block Gram-Schmidt panels are column slices of their Q); ``_thin_qr``
runs it on an F copy, and ``thin_householder_qr`` wraps that.

``_openblas()`` is the package's one handle on numpy's bundled OpenBLAS:
it sets the thread count here, and ``triangular`` solves through its
``dtrsv``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .errors import DimensionError, LinAlgError, NonFiniteError, RankDeficientError
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


# The symbols of the bundled OpenBLAS in use, with their C signatures: the
# thread count, and ``triangular``'s dtrsv (four CBLAS enums, then ILP64 sizes).
_SIGNATURES = {
    "scipy_openblas_get_num_threads64_": ([], ctypes.c_int),
    "scipy_openblas_set_num_threads64_": ([ctypes.c_int], None),
    "scipy_cblas_dtrsv64_": ([ctypes.c_int] * 4 + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                              ctypes.c_void_p, ctypes.c_int64], None),
}

# A QR factors on one OpenBLAS thread up to this many flops of dgeqrf +
# dorgqr: above the presets' largest thin panel (1500 x 500, 1.33e9) and
# below the squares from l = 800 (1.37e9), which lose on one thread
# (README's Determinism section has the per-shape table).
_ONE_THREAD_FLOPS = 1.35e9


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS with ``_SIGNATURES`` declared, or None when
    numpy bundles none."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    for name, (argtypes, restype) in _SIGNATURES.items():
        getattr(lib, name).argtypes, getattr(lib, name).restype = argtypes, restype
    return lib


def _pins_one_thread(l: int, k: int) -> bool:
    """Whether an l x k QR factors on one OpenBLAS thread."""
    return 4 * l * k * k - 4 * k**3 / 3 <= _ONE_THREAD_FLOPS


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the count after it,
    also when it raises; without a bundled OpenBLAS it does nothing.  The
    count is process-wide, so BLAS calls from other threads meanwhile run
    on one thread too."""
    lib = _openblas()
    before = lib.scipy_openblas_get_num_threads64_() if lib else 1
    if before == 1:
        yield
        return
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _lapack(routine, *args) -> None:
    """Run the ``lapack_lite`` ``routine`` on its leading ``args`` with the
    workspace it asks for; a negative INFO, an illegal argument, raises."""
    size = np.empty(1)
    info = routine(*args, size, -1, 0)["info"]
    if info == 0:
        work = np.empty(max(1, int(size[0])))
        info = routine(*args, work, work.size, 0)["info"]
    if info < 0:
        raise LinAlgError(f"{routine.__name__}: argument {-info} is illegal")


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


def _qr_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite the writable, F-contiguous float64 l x k ``a``, such as a column slice of an
    F-order array, with the Q of its checked thin QR and return R (``thin_householder_qr``
    has the checks).  Any other layout, which LAPACK would misread, raises ``ValueError``."""
    l, k = a.shape
    if l < k:
        raise DimensionError(f"thin QR needs rows >= cols, got {l}x{k}")
    if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("in-place QR needs a writable, F-contiguous float64 panel")
    tol = default_rank_tol(a)  # of the panel, before LAPACK overwrites it; raises on inf/NaN
    pin = _one_blas_thread() if _pins_one_thread(l, k) else contextlib.nullcontext()
    with pin:
        # a.T is the C-contiguous view lapack_lite takes; LAPACK reads it as a, lda = l.
        tau, at = np.empty(k), a.T
        _lapack(lapack_lite.dgeqrf, l, k, at, l, tau)
        r = np.triu(a[:k])
        _lapack(lapack_lite.dorgqr, l, k, k, at, l, tau)
    if not (np.isfinite(a).all() and np.isfinite(r).all()):
        raise NonFiniteError("QR factor is not finite")
    small = np.flatnonzero(np.abs(np.diag(r)) <= tol)
    if small.size:
        raise RankDeficientError(column=int(small[0]))
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

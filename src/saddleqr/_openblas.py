"""The package's one boundary with raw LAPACK and numpy's bundled OpenBLAS.

``library()`` loads it once, or returns None on a numpy build that bundles
none.  ``dgeqrf`` and ``dorgqr`` then run the same routines through
``numpy.linalg.lapack_lite``, which holds the GIL, behind the same checks,
workspace query and INFO mapping, with byte-equal Q and R; the other
callers take their own fallbacks (``numpy.linalg.eigvalsh`` for the
eigenvalues, a column sweep for the triangular solve).  ``one_thread()``
pins its thread count.  Every other
function here binds one routine, all of them LAPACKE or CBLAS entry points
with no hidden Fortran string lengths, and checks each operand's dtype,
shape, contiguity and, where the routine writes it, writability before any
pointer passes: a wrong operand raises ``ValueError`` and is left untouched.
ctypes releases the GIL for every call, so other Python threads run
meanwhile.  The matrix routines take LAPACKE's ``_work`` entry points with
the workspace their query asks for, as ``numpy.linalg.lapack_lite`` runs
them: the plain entry points would first scan the whole matrix for NaN,
which cost the QR 3-6 % at l = 300-600, and every operand here is finite
(the callers check).  A negative INFO raises ``LinAlgError``, a positive
one ``NonConvergedError``, and a LAPACKE workspace that cannot be
allocated ``MemoryError``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np
from numpy.linalg import lapack_lite

from .errors import LinAlgError, NonConvergedError

_I64, _PTR, _F64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
_COLUMN_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR
# CBLAS enum values: RowMajor, Upper, NoTrans, NonUnit.
_ROW_UPPER_NOTRANS_NONUNIT = (101, 121, 111, 131)
_WORK_MEMORY_ERRORS = (-1010, -1011)  # LAPACKE's LAPACK_(TRANSPOSE_)WORK_MEMORY_ERROR
_ABSTOL = 2.0 * float(np.finfo(np.float64).tiny)  # dstebz's most accurate tolerance

# Each symbol with its C signature (LAPACKE routines return INFO).
_SIGNATURES = {
    "scipy_openblas_get_num_threads64_": ([], ctypes.c_int),
    "scipy_openblas_set_num_threads64_": ([ctypes.c_int], None),
    "scipy_cblas_dtrsv64_": ([ctypes.c_int] * 4 + [_I64, _PTR, _I64, _PTR, _I64], None),
    "scipy_LAPACKE_dgeqrf_work64_": ([ctypes.c_int, _I64, _I64, _PTR, _I64, _PTR, _PTR, _I64],
                                     _I64),
    "scipy_LAPACKE_dorgqr_work64_": ([ctypes.c_int, _I64, _I64, _I64, _PTR, _I64, _PTR, _PTR,
                                      _I64], _I64),
    "scipy_LAPACKE_dsytrd_work64_": ([ctypes.c_int, ctypes.c_char, _I64, _PTR, _I64, _PTR, _PTR,
                                      _PTR, _PTR, _I64], _I64),
    "scipy_LAPACKE_dstebz64_": ([ctypes.c_char, ctypes.c_char, _I64, _F64, _F64, _I64, _I64,
                                 _F64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR], _I64),
    "scipy_LAPACKE_dsterf64_": ([_I64, _PTR, _PTR], _I64),
}


@functools.cache
def library() -> ctypes.CDLL | None:
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


@contextlib.contextmanager
def one_thread():
    """Run the block on one OpenBLAS thread and restore the count after it,
    also when it raises; without a bundled OpenBLAS it does nothing.  The
    count is process-wide, so BLAS calls from other threads meanwhile run
    on one thread too."""
    lib = library()
    before = lib.scipy_openblas_get_num_threads64_() if lib else 1
    if before == 1:
        yield
        return
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _pointer(x, shape: tuple[int, ...], order: str = "C", write: bool = False) -> int:
    """The data pointer of ``x``, a float64 ndarray of ``shape``, contiguous in
    ``order`` ("C", "F", or "A" for either) and writable if ``write``."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == shape):
        got = f"{x.dtype} {x.shape}" if isinstance(x, np.ndarray) else type(x).__name__
        raise ValueError(f"need a float64 array of shape {shape}, got {got}")
    flags = x.flags
    if not {"C": flags.c_contiguous, "F": flags.f_contiguous,
            "A": flags.c_contiguous or flags.f_contiguous}[order]:
        raise ValueError(f"need a {order}-contiguous array of shape {shape}")
    if write and not flags.writeable:
        raise ValueError(f"need a writable array of shape {shape}")
    return x.ctypes.data


def _with_workspace(call) -> int:
    """INFO of a LAPACK ``call`` of (work array, its size), run with the
    workspace its query (size -1) asks for."""
    size = np.empty(1)
    info = call(size, -1)
    if info == 0:
        work = np.empty(max(1, int(size[0])))
        info = call(work, work.size)
    return info


def _checked(routine: str, info: int) -> None:
    """Raise the error a LAPACK ``routine``'s INFO reports, if any."""
    if info in _WORK_MEMORY_ERRORS:
        raise MemoryError(f"{routine}: no memory for its workspace")
    if info < 0:
        raise LinAlgError(f"{routine}: argument {-info} is illegal")
    if info > 0:
        raise NonConvergedError(f"LAPACK did not converge: {routine} INFO = {info}")


def dtrsv(ra: np.ndarray, z: np.ndarray) -> None:
    """Overwrite z with the solution of R x = z, R the upper triangle of the
    C-contiguous n x n ``ra``."""
    n = len(z)
    pa, pz = _pointer(ra, (n, n)), _pointer(z, (n,), write=True)
    library().scipy_cblas_dtrsv64_(*_ROW_UPPER_NOTRANS_NONUNIT, n, pa, n, pz, 1)


def _qr_step(routine: str, dims: tuple[int, ...], a: np.ndarray, pa: int, tau: np.ndarray,
             pt: int) -> None:
    """Run the QR ``routine`` on its ``dims``, the checked F-contiguous ``a``
    at ``pa`` (lda = its rows) and ``tau`` at ``pt``.  Without the bundled
    OpenBLAS it runs through ``lapack_lite`` on a's C view a.T, which LAPACK
    reads as a."""
    lib, lda = library(), a.shape[0]
    if lib is None:
        lite = getattr(lapack_lite, routine)
        info = _with_workspace(lambda work, size: lite(*dims, a.T, lda, tau, work, size, 0)["info"])
    else:
        lapacke = getattr(lib, f"scipy_LAPACKE_{routine}_work64_")
        info = _with_workspace(lambda work, size: lapacke(_COLUMN_MAJOR, *dims, pa, lda, pt,
                                                          work.ctypes.data, size))
    _checked(routine, info)


def dgeqrf(a: np.ndarray, tau: np.ndarray) -> None:
    """LAPACK's QR of the F-contiguous l x k ``a``, in place: R on and above
    its diagonal, the reflectors below it and their scalars in ``tau``."""
    l, k = a.shape
    pa, pt = _pointer(a, (l, k), "F", write=True), _pointer(tau, (k,), write=True)
    _qr_step("dgeqrf", (l, k), a, pa, tau, pt)


def dorgqr(a: np.ndarray, tau: np.ndarray) -> None:
    """Overwrite ``a``, as ``dgeqrf`` left it with ``tau``, with the l x k Q
    (l >= k)."""
    l, k = a.shape
    if l < k:
        raise ValueError(f"dorgqr needs rows >= cols, got {l}x{k}")
    pa, pt = _pointer(a, (l, k), "F", write=True), _pointer(tau, (k,))
    _qr_step("dorgqr", (l, k, k), a, pa, tau, pt)


def dsytrd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e), the diagonal and off-diagonal of the tridiagonal matrix that
    Householder similarity reduces the symmetric n x n ``a`` to.  It reads the
    lower triangle of a's column-major storage (a's own lower triangle when a
    is F-ordered, its upper one when C-ordered) and overwrites ``a``."""
    n = len(a)
    pa = _pointer(a, (n, n), "A", write=True)
    d, e, tau = np.empty(n), np.empty(max(n - 1, 0)), np.empty(max(n - 1, 1))
    call = functools.partial(library().scipy_LAPACKE_dsytrd_work64_, _COLUMN_MAJOR, b"L", n, pa,
                             max(1, n), d.ctypes.data, e.ctypes.data, tau.ctypes.data)
    _checked("dsytrd", _with_workspace(lambda work, size: call(work.ctypes.data, size)))
    return d, e


def dstebz(d: np.ndarray, e: np.ndarray, i: int) -> float:
    """Eigenvalue ``i`` (1-based, ascending) of the tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``, by bisection to absolute
    tolerance 2 * tiny; neither operand is written."""
    n = len(d)
    if not 1 <= i <= n:
        raise ValueError(f"no eigenvalue {i} of a tridiagonal matrix of order {n}")
    pd, pe = _pointer(d, (n,)), _pointer(e, (max(n - 1, 0),))
    found, blocks = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    w, block, split = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    info = library().scipy_LAPACKE_dstebz64_(
        b"I", b"E", n, 0.0, 0.0, i, i, _ABSTOL, pd, pe, found.ctypes.data, blocks.ctypes.data,
        w.ctypes.data, block.ctypes.data, split.ctypes.data)
    _checked("dstebz", info)
    return float(w[0])


def dsterf(d: np.ndarray, e: np.ndarray) -> None:
    """Overwrite ``d`` with the ascending eigenvalues of the tridiagonal
    matrix with diagonal ``d`` and off-diagonal ``e``; ``e`` is destroyed."""
    n = len(d)
    pd, pe = _pointer(d, (n,), write=True), _pointer(e, (max(n - 1, 0),), write=True)
    _checked("dsterf", library().scipy_LAPACKE_dsterf64_(n, pd, pe))

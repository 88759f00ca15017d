"""Two-panel block Gram-Schmidt QR factorizations.

``bcgs`` orthogonalizes the second panel against the first once;
``bcgs2`` adds one full reorthogonalization pass of the second panel's Q
factor.  Both factor a square l x l matrix split after column m into one
l x l factorization M = Q R with R upper triangular and positive
diagonal.  Q is F-ordered, and each panel is factored in its own column
slice of it: M1 is copied into Q1 = Q[:, :m], and Y = M2 - Q1 S is written
into Q2 = Q[:, m:].  R1 = R[:m, :m], S = R[:m, m:] and R2 = R[m:, m:] are
written into R.  Only ``bcgs`` and ``bcgs2`` take and return wrapped matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, LinAlgError
from .householder import ThinQR, _qr_in_place
from .matrix import DenseMatrix


def _project_out(q: np.ndarray, m: int, m2: np.ndarray, step: str) -> tuple[np.ndarray, np.ndarray]:
    """Write Y = M2 - Q1 S, S = Q1^T M2, into Q2 = q[:, m:] of the F-order q,
    with Q1 = q[:, :m], and factor it there; return (S, R of Y)."""
    s = q[:, :m].T @ m2
    # Not matmul(out=): into an F-order slice it runs another BLAS kernel.
    np.subtract(m2, q[:, :m] @ s, out=q[:, m:])
    return s, _qr_in_place(q[:, m:], step)


def _bcgs(xa: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(Q, R) of ``bcgs``, as new writable arrays, Q in F order."""
    q, r = np.empty(xa.shape, order="F"), np.zeros(xa.shape)
    q[:, :m] = xa[:, :m]
    r[:m, :m] = _qr_in_place(q[:, :m], "first panel")
    r[:m, m:], r[m:, m:] = _project_out(q, m, xa[:, m:], "second panel")
    return q, r


def _check_split(x: DenseMatrix, m: int) -> None:
    if x.rows != x.cols or not 0 < m < x.cols:
        raise DimensionError(f"bcgs needs a square matrix split inside it, got {x.shape} at {m}")


def bcgs(x: DenseMatrix, m: int) -> ThinQR:
    """Single-pass block classical Gram-Schmidt of the square ``x`` split
    after column ``m`` into M1 = x[:, :m] and M2 = x[:, m:].

    Steps: M1 = Q1 R1; S = Q1^T M2; Y = M2 - Q1 S; Y = Q2 R2.
    """
    _check_split(x, m)
    q, r = _bcgs(x.array, m)
    return ThinQR(q=DenseMatrix._wrap(q), r=DenseMatrix._wrap(r))


def _reorthogonalize(q: np.ndarray, r: np.ndarray, m: int) -> None:
    """One reorthogonalization pass of the second panel of the writable bcgs
    factors (q, r) split after column m, in place; q must be F-ordered.
    S2 = Q1^T Q2; Y2 = Q2 - Q1 S2; Y2 = Q2' R2'; then S = S1 + S2 R2,
    R2_final = R2' R2 and Q2_final = Q2'."""
    s2, r3 = _project_out(q, m, q[:, m:], "reorthogonalization panel")
    r[:m, m:] += s2 @ r[m:, m:]
    r[m:, m:] = r3 @ r[m:, m:]
    diag = np.diag(r)[m:]
    if np.any(diag <= 0.0):
        bad = int(np.argmin(diag))
        raise LinAlgError(
            f"refined second-panel triangle lost its positive diagonal at {bad} "
            f"(value {diag[bad]:.3e})"
        )


def bcgs2(x: DenseMatrix, m: int) -> ThinQR:
    """Block classical Gram-Schmidt with one reorthogonalization pass of the
    bcgs factorization, run in place on it."""
    _check_split(x, m)
    q, r = _bcgs(x.array, m)
    _reorthogonalize(q, r, m)
    return ThinQR(q=DenseMatrix._wrap(q), r=DenseMatrix._wrap(r))

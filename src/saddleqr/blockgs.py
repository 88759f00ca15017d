"""Two-panel block Gram-Schmidt QR factorizations.

``bcgs`` orthogonalizes the second panel against the first once;
``bcgs2`` adds one full reorthogonalization pass of the second panel's Q
factor.  Both factor a square l x l matrix split after column m into one
l x l factorization M = Q R with R upper triangular and positive
diagonal.  The panel factors Q1 = Q[:, :m], Q2 = Q[:, m:], R1 = R[:m, :m],
S = R[:m, m:] and R2 = R[m:, m:] are written straight into Q and R.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, LinAlgError, RankDeficientError
from .householder import ThinQR, thin_householder_qr
from .matrix import DenseMatrix


def _panel_qr(x: np.ndarray, step: str) -> ThinQR:
    try:
        return thin_householder_qr(DenseMatrix._wrap(x))
    except RankDeficientError as exc:
        raise RankDeficientError(column=exc.column, step=step) from exc


def bcgs(x: DenseMatrix, m: int) -> ThinQR:
    """Single-pass block classical Gram-Schmidt of the square ``x`` split
    after column ``m`` into M1 = x[:, :m] and M2 = x[:, m:].

    Steps: M1 = Q1 R1; S = Q1^T M2; Y = M2 - Q1 S; Y = Q2 R2.
    """
    if x.rows != x.cols or not 0 < m < x.cols:
        raise DimensionError(f"bcgs needs a square matrix split inside it, got {x.shape} at {m}")
    xa, l = x.array, x.rows
    q, r = np.empty((l, l)), np.zeros((l, l))
    f1 = _panel_qr(xa[:, :m], "first panel")
    q[:, :m], r[:m, :m] = f1.q.array, f1.r.array
    q1, m2 = q[:, :m], xa[:, m:]
    s = q1.T @ m2
    f2 = _panel_qr(m2 - q1 @ s, "second panel")
    q[:, m:], r[:m, m:], r[m:, m:] = f2.q.array, s, f2.r.array
    return ThinQR(q=DenseMatrix._wrap(q), r=DenseMatrix._wrap(r))


def _reorthogonalize(first: ThinQR, m: int) -> ThinQR:
    """One reorthogonalization pass of the second panel's Q factor of a
    ``bcgs`` factorization split after column m: S2 = Q1^T Q2;
    Y2 = Q2 - Q1 S2; Y2 = Q2' R2'; then S = S1 + S2 R2 and R2_final = R2' R2."""
    qa, ra = first.q.array, first.r.array
    q1, q2, r2 = qa[:, :m], qa[:, m:], ra[m:, m:]
    s2 = q1.T @ q2
    f3 = _panel_qr(q2 - q1 @ s2, "reorthogonalization panel")

    q, r = qa.copy(), ra.copy()
    q[:, m:] = f3.q.array
    r[:m, m:] = ra[:m, m:] + s2 @ r2
    r[m:, m:] = f3.r.array @ r2
    diag = np.diag(r)[m:]
    if np.any(diag <= 0.0):
        bad = int(np.argmin(diag))
        raise LinAlgError(
            f"refined second-panel triangle lost its positive diagonal at {bad} "
            f"(value {diag[bad]:.3e})"
        )
    return ThinQR(q=DenseMatrix._wrap(q), r=DenseMatrix._wrap(r))


def bcgs2(x: DenseMatrix, m: int) -> ThinQR:
    """Block classical Gram-Schmidt with one reorthogonalization pass of the bcgs factorization."""
    return _reorthogonalize(bcgs(x, m), m)

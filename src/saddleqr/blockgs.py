"""Two-panel block Gram-Schmidt QR factorizations.

``bcgs`` orthogonalizes the second panel against the first once;
``bcgs2`` adds one full reorthogonalization pass of the second panel's Q
factor.  Both assemble an l x l factorization M = Q R with R upper
triangular and positive diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, LinAlgError, RankDeficientError
from .householder import ThinQR, thin_householder_qr
from .matrix import DenseMatrix, hconcat, matmul


@dataclass(frozen=True)
class BlockPartition:
    """Two-block column partition (M1, M2) of a square l x l matrix,
    with M1 of width m, M2 of width n and l = m + n."""

    m1: DenseMatrix
    m2: DenseMatrix

    def __post_init__(self):
        if self.m1.rows != self.m2.rows:
            raise DimensionError(
                f"panels must share row count, got {self.m1.shape} and {self.m2.shape}"
            )
        if self.m1.rows != self.m1.cols + self.m2.cols:
            raise DimensionError(
                f"partition must be square overall: {self.m1.rows} rows vs "
                f"{self.m1.cols}+{self.m2.cols} columns"
            )

    @classmethod
    def split(cls, m: DenseMatrix, width: int) -> "BlockPartition":
        if not 0 < width < m.cols:
            raise DimensionError(f"split width {width} out of range for {m.shape}")
        return cls(m1=m.columns(0, width), m2=m.columns(width, m.cols))

    @property
    def l(self) -> int:
        return self.m1.rows

    def full(self) -> DenseMatrix:
        return hconcat(self.m1, self.m2)


@dataclass(frozen=True)
class ReorthDiagnostics:
    """Intermediates of the reorthogonalization pass, kept so the exact
    update identities s = s1 + s2 r2_initial and r2 = r2_refine r2_initial
    can be checked."""

    s1: DenseMatrix
    s2: DenseMatrix
    r2_initial: DenseMatrix
    r2_refine: DenseMatrix


@dataclass(frozen=True)
class BlockQR:
    """Assembled two-panel factorization: Q = (q1, q2),
    R = [[r1, s], [0, r2]]."""

    q1: DenseMatrix
    q2: DenseMatrix
    r1: DenseMatrix
    s: DenseMatrix
    r2: DenseMatrix
    diagnostics: ReorthDiagnostics | None = None

    @property
    def m(self) -> int:
        return self.q1.cols

    @property
    def n(self) -> int:
        return self.q2.cols

    def q(self) -> DenseMatrix:
        return hconcat(self.q1, self.q2)

    def r(self) -> DenseMatrix:
        m, n = self.m, self.n
        out = np.zeros((m + n, m + n))
        out[:m, :m] = self.r1.array
        out[:m, m:] = self.s.array
        out[m:, m:] = self.r2.array
        return DenseMatrix._wrap(out)


def _panel_qr(x: np.ndarray, step: str) -> ThinQR:
    try:
        return thin_householder_qr(DenseMatrix._wrap(x))
    except RankDeficientError as exc:
        raise RankDeficientError(column=exc.column, step=step) from exc


def _first_pass(p: BlockPartition) -> tuple[ThinQR, DenseMatrix, ThinQR]:
    """M1 = Q1 R1; S = Q1^T M2; Y = M2 - Q1 S; Y = Q2 R2."""
    f1 = _panel_qr(p.m1.array, "first panel")
    q1, m2 = f1.q.array, p.m2.array
    s = q1.T @ m2
    f2 = _panel_qr(m2 - q1 @ s, "second panel")
    return f1, DenseMatrix._wrap(s), f2


def bcgs(p: BlockPartition) -> BlockQR:
    """Single-pass block classical Gram-Schmidt.

    Steps: M1 = Q1 R1; S = Q1^T M2; Y = M2 - Q1 S; Y = Q2 R2.
    """
    f1, s, f2 = _first_pass(p)
    return BlockQR(q1=f1.q, q2=f2.q, r1=f1.r, s=s, r2=f2.r)


def bcgs2(p: BlockPartition) -> BlockQR:
    """Block classical Gram-Schmidt with one reorthogonalization pass.

    After the single-pass steps (S1, Y1, Q2 R2), the second panel's Q
    factor is orthogonalized against Q1 once more:
    S2 = Q1^T Q2; Y2 = Q2 - Q1 S2; Y2 = Q2' R2'; then
    S = S1 + S2 R2 and R2_final = R2' R2.  These last two products use the
    serial ``matmul``, so both update identities hold bitwise when
    recomputed with it from the diagnostics.
    """
    f1, s1, f2 = _first_pass(p)
    q1, q2 = f1.q.array, f2.q.array
    s2 = DenseMatrix._wrap(q1.T @ q2)
    f3 = _panel_qr(q2 - q1 @ s2.array, "reorthogonalization panel")

    s_new = s1 + matmul(s2, f2.r)
    r2_new = matmul(f3.r, f2.r)
    diag = np.diag(r2_new.array)
    if np.any(diag <= 0.0):
        bad = int(np.argmin(diag))
        raise LinAlgError(
            f"refined second-panel triangle lost its positive diagonal at {bad} "
            f"(value {diag[bad]:.3e})"
        )
    return BlockQR(
        q1=f1.q,
        q2=f3.q,
        r1=f1.r,
        s=s_new,
        r2=r2_new,
        diagnostics=ReorthDiagnostics(s1=s1, s2=s2, r2_initial=f2.r, r2_refine=f3.r),
    )

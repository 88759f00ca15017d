"""Symmetric saddle-point systems: assembly, validation, and QR solves.

The system matrix is M = [[A, B], [B^T, -C]] with A (m x m) symmetric
positive definite, C (n x n) symmetric positive semidefinite and B
(m x n) of full column rank n <= m; then M is nonsingular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockgs import BlockPartition, bcgs, bcgs2
from .errors import DimensionError, RankDeficientError
from .householder import thin_householder_qr
from .matrix import MACHINE_EPS, DenseMatrix, Vector, _is_symmetric, transpose, vconcat
from .norms import _lapack
from .triangular import back_substitute, cholesky

METHODS = ("bcgs", "bcgs2", "householder")


@dataclass(frozen=True)
class SaddleBlocks:
    """The (A, B, C) block triple."""

    a: DenseMatrix
    b: DenseMatrix
    c: DenseMatrix

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise DimensionError(f"A must be square, got {self.a.shape}")
        if self.c.rows != self.c.cols:
            raise DimensionError(f"C must be square, got {self.c.shape}")
        if self.b.rows != self.a.rows or self.b.cols != self.c.rows:
            raise DimensionError(
                f"B must be {self.a.rows}x{self.c.rows} to couple A {self.a.shape} "
                f"and C {self.c.shape}, got {self.b.shape}"
            )

    @property
    def m(self) -> int:
        return self.a.rows

    @property
    def n(self) -> int:
        return self.c.rows

    @property
    def l(self) -> int:
        return self.m + self.n


def assemble(blocks: SaddleBlocks) -> DenseMatrix:
    """The (m+n) x (m+n) matrix [[A, B], [B^T, -C]]."""
    m, n = blocks.m, blocks.n
    out = np.empty((m + n, m + n))
    out[:m, :m] = blocks.a.array
    out[:m, m:] = blocks.b.array
    out[m:, :m] = blocks.b.array.T
    out[m:, m:] = -blocks.c.array
    return DenseMatrix._wrap(out)


def partition(blocks: SaddleBlocks) -> BlockPartition:
    """Column panels M1 = (A; B^T), M2 = (B; -C) of the assembled matrix."""
    m1 = vconcat(blocks.a, transpose(blocks.b))
    m2 = vconcat(blocks.b, -blocks.c)
    return BlockPartition(m1=m1, m2=m2)


@dataclass(frozen=True)
class ValidationReport:
    """Structural certificates for the block triple, with diagnostics."""

    a_spd: bool
    c_psd: bool
    b_full_rank: bool
    cholesky_min_pivot: float
    c_min_eigenvalue: float
    b_min_r_diagonal: float | None

    @property
    def all_passed(self) -> bool:
        return self.a_spd and self.c_psd and self.b_full_rank


def validate(blocks: SaddleBlocks) -> ValidationReport:
    """Check A SPD, C symmetric PSD, and B full column rank.

    Failures land in the report rather than raising; the diagnostics carry
    the minimum Cholesky pivot (NaN when A is not symmetric), the
    smallest eigenvalue of C and the smallest |R| diagonal of B's
    thin QR.  A and C count as symmetric within 10 * eps * ||.||_F
    entrywise (``matrix._is_symmetric``), the test ``cholesky`` applies.
    """
    if _is_symmetric(blocks.a.array):
        chol = cholesky(blocks.a)
        a_spd = chol.ok
        min_pivot = chol.min_pivot
    else:
        a_spd = False
        min_pivot = float("nan")

    c_eigs = _lapack(np.linalg.eigvalsh, blocks.c.array)
    c_min_eig = float(c_eigs[0])
    norm_c = float(max(-c_eigs[0], c_eigs[-1]))
    c_psd = _is_symmetric(blocks.c.array) and c_min_eig >= -100.0 * MACHINE_EPS * norm_c

    b_min_r = None
    if blocks.n <= blocks.m:
        try:
            fac = thin_householder_qr(blocks.b)
            b_min_r = float(np.min(np.abs(np.diag(fac.r.array))))
            b_full_rank = True
        except RankDeficientError:
            b_full_rank = False
    else:
        b_full_rank = False

    return ValidationReport(
        a_spd=a_spd,
        c_psd=c_psd,
        b_full_rank=b_full_rank,
        cholesky_min_pivot=min_pivot,
        c_min_eigenvalue=c_min_eig,
        b_min_r_diagonal=b_min_r,
    )


@dataclass(frozen=True)
class SaddleSolution:
    """Solution split z = (x; y); z is exactly the concatenation."""

    z: Vector
    x: Vector
    y: Vector
    method: str


@dataclass(frozen=True)
class SolveDetail:
    """Solution together with the factorization that produced it."""

    solution: SaddleSolution
    matrix: DenseMatrix
    q: DenseMatrix
    r: DenseMatrix


def solve_detailed(blocks: SaddleBlocks, f: Vector, method: str) -> SolveDetail:
    """Factor M with the chosen path, then solve R z = Q^T f."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if len(f) != blocks.l:
        raise DimensionError(
            f"right-hand side length {len(f)} does not match system size {blocks.l}"
        )
    m = assemble(blocks)
    if method == "householder":
        fac = thin_householder_qr(m)
        q, r = fac.q, fac.r
    else:
        factor = bcgs(partition(blocks)) if method == "bcgs" else bcgs2(partition(blocks))
        q, r = factor.q(), factor.r()
    z = back_substitute(r, Vector._wrap(q.array.T @ f.array))
    sol = SaddleSolution(
        z=z, x=z.slice(0, blocks.m), y=z.slice(blocks.m, blocks.l), method=method
    )
    return SolveDetail(solution=sol, matrix=m, q=q, r=r)


def solve(blocks: SaddleBlocks, f: Vector, method: str) -> SaddleSolution:
    """Solve M z = f via the chosen QR path (bcgs | bcgs2 | householder)."""
    return solve_detailed(blocks, f, method).solution

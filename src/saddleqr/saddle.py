"""Symmetric saddle-point systems: assembly, validation, and QR solves.

The system matrix is M = [[A, B], [B^T, -C]] with A (m x m) symmetric
positive definite, C (n x n) symmetric positive semidefinite and B
(m x n) of full column rank n <= m; then M is nonsingular.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .blockgs import _reorthogonalize, bcgs, bcgs2
from .errors import DimensionError, RankDeficientError
from .householder import ThinQR, thin_householder_qr
from .matrix import MACHINE_EPS, DenseMatrix, Vector, _is_symmetric
from .norms import _Spectrum
from .triangular import _back_substitute_arr, cholesky

METHODS = ("bcgs", "bcgs2", "householder")


@dataclass(frozen=True)
class SaddleBlocks:
    """The (A, B, C) block triple.  ``matrix`` is M, assembled on first use
    and shared, read-only, by every later caller; equality and hashing see
    only the three blocks."""

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

    @functools.cached_property
    def matrix(self) -> DenseMatrix:
        m = self.m
        out = np.empty((self.l, self.l))
        out[:m, :m] = self.a.array
        out[:m, m:] = self.b.array
        out[m:, :m] = self.b.array.T
        out[m:, m:] = -self.c.array
        return DenseMatrix._wrap(out)


def assemble(blocks: SaddleBlocks) -> DenseMatrix:
    """The (m+n) x (m+n) matrix [[A, B], [B^T, -C]]: the blocks' one
    shared, read-only M, assembled on the first call."""
    return blocks.matrix


@dataclass(frozen=True)
class ValidationReport:
    """Structural certificates for the block triple, with diagnostics."""

    a_spd: bool
    c_psd: bool
    b_full_rank: bool
    cholesky_min_pivot: float
    c_min_eigenvalue: float

    @property
    def all_passed(self) -> bool:
        return self.a_spd and self.c_psd and self.b_full_rank


def validate(blocks: SaddleBlocks) -> ValidationReport:
    """Check A SPD, C symmetric PSD, and B full column rank (its thin QR succeeds).

    Failures land in the report rather than raising; the diagnostics carry
    the minimum Cholesky pivot (NaN when A is not symmetric) and the
    smallest eigenvalue of C.  A and C count as symmetric within
    10 * eps * ||.||_F entrywise (``matrix._is_symmetric``); for A that is
    ``cholesky``'s own check.
    """
    try:
        chol = cholesky(blocks.a)
        a_spd, min_pivot = chol.ok, chol.min_pivot
    except ValueError:  # cholesky refuses an A that is not symmetric
        a_spd, min_pivot = False, float("nan")

    # An F-order copy, since C is read-only: dsytrd then reads C's own lower
    # triangle, as numpy's eigvalsh does, also when C is not symmetric.
    c_min_eig, c_max_eig = _Spectrum(np.array(blocks.c.array, order="F")).ends()
    norm_c = max(-c_min_eig, c_max_eig)
    c_psd = _is_symmetric(blocks.c.array) and c_min_eig >= -100.0 * MACHINE_EPS * norm_c

    try:  # a B wider than tall is refused by the QR's shape check
        thin_householder_qr(blocks.b)
        b_full_rank = True
    except (DimensionError, RankDeficientError):
        b_full_rank = False

    return ValidationReport(
        a_spd=a_spd,
        c_psd=c_psd,
        b_full_rank=b_full_rank,
        cholesky_min_pivot=min_pivot,
        c_min_eigenvalue=c_min_eig,
    )


@dataclass(frozen=True)
class SaddleSolution:
    """The solution z = (x; y) of M z = f and the method that computed it;
    x is ``z.array[:m]`` and y is ``z.array[m:]``."""

    z: Vector
    method: str


@dataclass(frozen=True)
class SolveDetail:
    """Solution together with the factorization that produced it; ``matrix``
    is the blocks' shared M, not a copy."""

    solution: SaddleSolution
    matrix: DenseMatrix
    q: DenseMatrix
    r: DenseMatrix


def solve_detailed(
    blocks: SaddleBlocks, f: Vector, method: str, *, first_pass: SolveDetail | None = None
) -> SolveDetail:
    """Factor M with the chosen path, then solve R z = Q^T f.  Given ``first_pass``, the
    detail of a bcgs solve of these same blocks, bcgs2 reorthogonalizes a copy of its
    factors and the other methods ignore it; any other detail raises ``ValueError``."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if len(f) != blocks.l:
        raise DimensionError(
            f"right-hand side length {len(f)} does not match system size {blocks.l}"
        )
    m = assemble(blocks)
    if first_pass is not None and (
        first_pass.solution.method != "bcgs" or first_pass.matrix is not m
    ):
        raise ValueError("first_pass must be the detail of a bcgs solve of these blocks")
    if method == "householder":
        fac = thin_householder_qr(m)
    elif method == "bcgs2" and first_pass is not None:
        q, r = np.array(first_pass.q.array, order="F"), np.array(first_pass.r.array)
        _reorthogonalize(q, r, blocks.m)
        fac = ThinQR(q=DenseMatrix._wrap(q), r=DenseMatrix._wrap(r))
    else:
        fac = bcgs(m, blocks.m) if method == "bcgs" else bcgs2(m, blocks.m)
    # R from ThinQR is upper triangular by contract, so the raw solve skips the check.
    z = Vector._wrap(_back_substitute_arr(fac.r.array, fac.q.array.T @ f.array))
    sol = SaddleSolution(z=z, method=method)
    return SolveDetail(solution=sol, matrix=m, q=fac.q, r=fac.r)

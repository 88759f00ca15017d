"""Symmetric saddle-point systems: assembly, validation, and QR solves.

The system matrix is M = [[A, B], [B^T, -C]] with A (m x m) symmetric
positive definite, C (n x n) symmetric positive semidefinite and B
(m x n) of full column rank n <= m; then M is nonsingular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockgs import _reorthogonalize, bcgs, bcgs2
from .errors import DimensionError, NonFiniteError, RankDeficientError
from .householder import ThinQR, _r_in_place, thin_householder_qr
from .matrix import MACHINE_EPS, DenseMatrix, Vector, _is_symmetric
from .norms import _Spectrum
from .triangular import _back_substitute_arr

METHODS = ("bcgs", "bcgs2", "householder")


class SaddleBlocks:
    """The block triple (A, B, C), held once as the read-only M = [[A, B], [B^T, -C]]
    and the split m: A is ``M[:m, :m]``, B is ``M[:m, m:]`` and C is ``-M[m:, m:]``,
    bitwise (signed zeros included), in ``matrix.array``."""

    __slots__ = ("_m", "_matrix")

    def __init__(self, a: DenseMatrix, b: DenseMatrix, c: DenseMatrix):
        if a.rows != a.cols:
            raise DimensionError(f"A must be square, got {a.shape}")
        if c.rows != c.cols:
            raise DimensionError(f"C must be square, got {c.shape}")
        if b.rows != a.rows or b.cols != c.rows:
            raise DimensionError(
                f"B must be {a.rows}x{c.rows} to couple A {a.shape} "
                f"and C {c.shape}, got {b.shape}"
            )
        m = a.rows
        out = np.empty((m + c.rows, m + c.rows))
        out[:m, :m] = a.array
        out[:m, m:] = b.array
        out[m:, :m] = b.array.T
        np.negative(c.array, out=out[m:, m:])
        self._m, self._matrix = m, DenseMatrix._wrap(out)

    @property
    def m(self) -> int:
        return self._m

    @property
    def n(self) -> int:
        return self.l - self._m

    @property
    def l(self) -> int:
        return self._matrix.rows

    @property
    def matrix(self) -> DenseMatrix:
        return self._matrix

    def __repr__(self) -> str:
        return f"SaddleBlocks(m={self.m}, n={self.n})"


def assemble(blocks: SaddleBlocks) -> DenseMatrix:
    """The (m+n) x (m+n) matrix [[A, B], [B^T, -C]]: the one read-only M
    the blocks hold."""
    return blocks.matrix


@dataclass(frozen=True)
class ValidationReport:
    """Structural certificates for the block triple, with diagnostics."""

    a_spd: bool
    c_psd: bool
    b_full_rank: bool
    a_symmetric: bool
    c_min_eigenvalue: float

    @property
    def all_passed(self) -> bool:
        return self.a_spd and self.c_psd and self.b_full_rank


def validate(blocks: SaddleBlocks) -> ValidationReport:
    """Check A SPD (symmetric, and LAPACK ``dpotrf`` factors it), C symmetric
    PSD, and B full column rank (the R step of its thin QR succeeds).

    Failures land in the report rather than raising; the diagnostics say
    whether A is symmetric and carry the smallest eigenvalue of C.  A and C
    count as symmetric within 10 * eps * ||.||_F entrywise
    (``matrix._is_symmetric``).  Each block is read from M once.
    """
    xa, m = blocks.matrix.array, blocks.m
    a_spd = a_symmetric = _is_symmetric(xa[:m, :m])
    if a_symmetric:
        try:
            np.linalg.cholesky(xa[:m, :m])  # its success is the verdict; L is not kept
        except np.linalg.LinAlgError:
            a_spd = False

    # One F-order copy of C, straight from M: dsytrd then reads C's own lower
    # triangle, as numpy's eigvalsh does, also when C is not symmetric.
    c = np.negative(xa[m:, m:], order="F")
    c_symmetric = _is_symmetric(c)  # before dsytrd overwrites c
    c_min_eig, c_max_eig = _Spectrum(c).ends()
    norm_c = max(-c_min_eig, c_max_eig)
    c_psd = c_symmetric and c_min_eig >= -100.0 * MACHINE_EPS * norm_c

    try:  # only the R step; a B wider than tall is refused by its shape check
        _r_in_place(np.array(xa[:m, m:], order="F"))
        b_full_rank = True
    except (DimensionError, RankDeficientError):
        b_full_rank = False

    return ValidationReport(
        a_spd=a_spd,
        c_psd=c_psd,
        b_full_rank=b_full_rank,
        a_symmetric=a_symmetric,
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
    """Factor M with the chosen path, then solve R z = Q^T f; a z that is not finite raises
    :class:`NonFiniteError`.  bcgs2 reorthogonalizes a copy of the factors of ``first_pass``,
    the detail of a bcgs solve of these blocks (any other raises ``ValueError``)."""
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
    z = _back_substitute_arr(fac.r.array, fac.q.array.T @ f.array)
    if not np.isfinite(z).all():
        raise NonFiniteError(f"the {method} solution is not finite")
    sol = SaddleSolution(z=Vector._wrap(z), method=method)
    return SolveDetail(solution=sol, matrix=m, q=fac.q, r=fac.r)

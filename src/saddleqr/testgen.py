"""Deterministic, seeded construction of benchmark problem families.

Every generator is a pure function of its arguments; the same seed gives
bitwise-identical output within one build.  Random orthogonal factors come
from the positive-diagonal thin Householder QR of a seeded Gaussian
matrix, so they are reproducible without any global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .householder import thin_householder_qr
from .matrix import DenseMatrix, Vector, mat_vec
from .rng import mix64, standard_normals
from .saddle import SaddleBlocks, assemble

GENERATOR_KINDS = ("matrix1", "matrix2", "hilbert", "ones_rank_one")


def logspace_diag(s: float, n: int) -> DenseMatrix:
    """Diagonal matrix with entries 10^0 down to 10^-s, log-spaced.

    For n >= 2 entry i is 10^(-s i / (n-1)); a single point collapses to
    the right endpoint 10^-s.
    """
    if n < 1:
        raise DimensionError(f"size must be positive, got {n}")
    if s < 0.0:
        raise ValueError(f"decade exponent must be nonnegative, got {s}")
    if n == 1:
        exps = np.array([-float(s)])
    else:
        exps = -float(s) * np.arange(n) / (n - 1)
    return DenseMatrix._wrap(np.diag(10.0**exps))


def random_orthogonal(n: int, seed: int) -> DenseMatrix:
    """Orthogonal n x n matrix: positive-diagonal Q factor of a seeded
    standard-normal matrix.  The 1 x 1 case has only two orthogonal values
    and is normalized to [[1]] regardless of seed."""
    if n < 1:
        raise DimensionError(f"size must be positive, got {n}")
    if n == 1:
        return DenseMatrix([[1.0]])
    g = standard_normals(seed, n * n).reshape((n, n))
    return thin_householder_qr(DenseMatrix(g)).q


def matrix1(m: int, n: int, s: float, seed: int) -> DenseMatrix:
    """m x n matrix with log-spaced singular values, kappa about 10^s.

    Built as P D Q^T from the first n columns of a random orthogonal P
    (m x m), the diagonal D = logspace_diag(s, n) and a random orthogonal
    Q (n x n).  Sub-seeds are derived from ``seed`` so the two factors are
    independent streams.
    """
    if m < n or n < 1:
        raise DimensionError(f"matrix1 requires m >= n >= 1, got m={m}, n={n}")
    p = random_orthogonal(m, mix64(seed, 1)).array[:, :n]
    qf = random_orthogonal(n, mix64(seed, 2)).array
    d = np.diag(logspace_diag(s, n).array)  # P D as a column scaling
    return DenseMatrix._wrap((p * d) @ qf.T)


def matrix2(n: int, s: float, seed: int) -> DenseMatrix:
    """Symmetric positive definite n x n matrix with log-spaced eigenvalues,
    kappa about 10^s: P D P^T from one random orthogonal P, then
    symmetrized as (X + X^T)/2."""
    p = random_orthogonal(n, seed).array
    d = np.diag(logspace_diag(s, n).array)
    x = (p * d) @ p.T
    return DenseMatrix._wrap(0.5 * (x + x.T))


def hilbert(m: int) -> DenseMatrix:
    """The m x m Hilbert matrix, entries 1 / (i + j - 1) (1-based)."""
    if m < 1:
        raise DimensionError(f"size must be positive, got {m}")
    i = np.arange(1, m + 1)
    return DenseMatrix._wrap(1.0 / (i[:, None] + i[None, :] - 1.0))


def ones_rank_one(n: int) -> DenseMatrix:
    """The all-ones n x n matrix e e^T (rank one, positive semidefinite)."""
    if n < 1:
        raise DimensionError(f"size must be positive, got {n}")
    return DenseMatrix._wrap(np.ones((n, n)))


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters selecting one generated matrix.

    ``matrix1`` uses (m, n, s, seed); the square kinds (matrix2, hilbert,
    ones_rank_one) use n only, plus (s, seed) for matrix2.
    """

    kind: str
    m: int | None = None
    n: int | None = None
    s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"kind must be one of {GENERATOR_KINDS}, got {self.kind!r}")
        if self.kind == "matrix1":
            if self.m is None or self.n is None or self.m < self.n or self.n < 1:
                raise ValueError(f"matrix1 requires m >= n >= 1, got m={self.m}, n={self.n}")
        else:
            if self.n is None or self.n < 1:
                raise ValueError(f"{self.kind} requires a positive size n, got {self.n}")

    def generate(self) -> DenseMatrix:
        if self.kind == "matrix1":
            return matrix1(self.m, self.n, self.s, self.seed)
        if self.kind == "matrix2":
            return matrix2(self.n, self.s, self.seed)
        if self.kind == "hilbert":
            return hilbert(self.n)
        return ones_rank_one(self.n)


@dataclass(frozen=True)
class ScaledProblem:
    """A scaled block triple with its constructed solution and right-hand
    side; ``f`` is stored exactly as computed, never recomputed."""

    blocks: SaddleBlocks
    t: float
    z_star: Vector
    f: Vector
    provenance: tuple[GeneratorSpec, ...] | None = None


def scale_problem(
    a1: DenseMatrix,
    b1: DenseMatrix,
    c1: DenseMatrix,
    t: float,
    provenance: tuple[GeneratorSpec, ...] | None = None,
) -> ScaledProblem:
    """Rescale base blocks by t and build the constructed solution.

    A = A1 / t, B = B1 * t, C = C1 * t; the exact solution is x* = t ones,
    y* = (1/t) ones, and f = M z* with the deterministic product.  Scaling
    leaves kappa(A), kappa(B), kappa(C) unchanged but moves kappa(M).
    """
    t = float(t)
    if t == 0.0:
        raise ValueError("scale parameter t must be nonzero")
    blocks = SaddleBlocks(a=a1 / t, b=b1 * t, c=c1 * t)
    m, n = blocks.m, blocks.n
    z = np.empty(m + n)
    z[:m] = t
    z[m:] = 1.0 / t
    z_star = Vector(z)
    f = mat_vec(assemble(blocks), z_star)
    return ScaledProblem(blocks=blocks, t=t, z_star=z_star, f=f, provenance=provenance)

"""Deterministic, seeded construction of benchmark problem families.

Every generator is a pure function of its arguments; the same seed gives
bitwise-identical output within one build.  Random orthogonal factors come
from the positive-diagonal thin Householder QR of a seeded Gaussian
matrix, so they are reproducible without any global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteError
from .householder import thin_householder_qr
from .matrix import DenseMatrix, Vector, mat_vec
from .rng import mix64, normals_at, standard_normals
from .saddle import SaddleBlocks, assemble

GENERATOR_KINDS = ("matrix1", "matrix2", "hilbert", "ones_rank_one")


def _log_spectrum(s: float, n: int) -> np.ndarray:
    """The n values 10^0 down to 10^-s, log-spaced.

    For n >= 2 entry i is 10^(-s i / (n-1)); a single point collapses to
    the right endpoint 10^-s.
    """
    if n < 1:
        raise DimensionError(f"size must be positive, got {n}")
    if not 0.0 <= s < np.inf:
        raise ValueError(f"decade exponent must be finite and nonnegative, got {s}")
    if n == 1:
        exps = np.array([-float(s)])
    else:
        exps = -float(s) * np.arange(n) / (n - 1)
    return 10.0**exps


def logspace_diag(s: float, n: int) -> DenseMatrix:
    """Diagonal matrix of the log-spaced values 10^0 down to 10^-s."""
    return DenseMatrix._wrap(np.diag(_log_spectrum(s, n)))


def _orthonormal_columns(n: int, k: int, seed: int) -> np.ndarray:
    """The first k columns of ``random_orthogonal(n, seed)``: the Q factor
    of the thin QR of the first k columns of the same seeded n x n
    standard-normal matrix.  The reflectors past column k leave e_j,
    j < k, untouched, so these agree with the full QR's to rounding.  Only
    the n k normals of those columns are drawn."""
    if n < 1:
        raise DimensionError(f"size must be positive, got {n}")
    if n == 1:
        return np.ones((1, 1))
    if k == n:
        g = standard_normals(seed, n * n).reshape((n, n))
    else:  # entry (i, j) of the n x n matrix is normal i n + j of the stream
        g = normals_at(seed, n * n, np.arange(n)[:, None] * n + np.arange(k))
    return thin_householder_qr(DenseMatrix._wrap(g)).q.array


def random_orthogonal(n: int, seed: int) -> DenseMatrix:
    """Orthogonal n x n matrix: positive-diagonal Q factor of a seeded
    standard-normal matrix.  The 1 x 1 case has only two orthogonal values
    and is normalized to [[1]] regardless of seed."""
    return DenseMatrix._wrap(_orthonormal_columns(n, n, seed))


def matrix1(m: int, n: int, s: float, seed: int) -> DenseMatrix:
    """m x n matrix with log-spaced singular values, kappa about 10^s.

    Built as P D Q^T from the first n columns of a random orthogonal P
    (m x m), the diagonal D = logspace_diag(s, n) and a random orthogonal
    Q (n x n).  Only P's n columns are drawn and factored; they are the
    same normals as in the full m x m draw.  Sub-seeds are derived from
    ``seed`` so the two factors are independent streams.
    """
    if m < n or n < 1:
        raise DimensionError(f"matrix1 requires m >= n >= 1, got m={m}, n={n}")
    p = _orthonormal_columns(m, n, mix64(seed, 1))
    qf = _orthonormal_columns(n, n, mix64(seed, 2))
    d = _log_spectrum(s, n)  # P D as a column scaling
    return DenseMatrix._wrap((p * d) @ qf.T)


def matrix2(n: int, s: float, seed: int) -> DenseMatrix:
    """Symmetric positive definite n x n matrix with log-spaced eigenvalues,
    kappa about 10^s: P D P^T from one random orthogonal P, then
    symmetrized as (X + X^T)/2."""
    # P read row-major: OpenBLAS's threaded dgemm rounds by operand layout at some n.
    p = np.ascontiguousarray(_orthonormal_columns(n, n, seed))
    d = _log_spectrum(s, n)
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
    leaves kappa(A), kappa(B), kappa(C) unchanged but moves kappa(M).  A
    scaled block, z* or f that leaves the floating-point range raises
    :class:`NonFiniteError`.
    """
    t = float(t)
    if t == 0.0:
        raise ValueError("scale parameter t must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):
        wrap = DenseMatrix._wrap
        blocks = SaddleBlocks(a=wrap(a1.array / t), b=wrap(b1.array * t), c=wrap(c1.array * t))
        z = np.concatenate([np.full(blocks.m, t), np.full(blocks.n, 1.0 / t)])
        m = assemble(blocks)
        if not (np.isfinite(m.array).all() and np.isfinite(z).all()):
            raise NonFiniteError(f"scaled blocks or z* are not finite at t={t:g}")
        z_star = Vector._wrap(z)
        f = mat_vec(m, z_star)
    if not np.isfinite(f.array).all():
        raise NonFiniteError(f"right-hand side f = M z* is not finite at t={t:g}")
    return ScaledProblem(blocks=blocks, t=t, z_star=z_star, f=f, provenance=provenance)

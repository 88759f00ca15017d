"""Spectral-norm and condition-number estimation, plus an exact small-size
symmetric eigensolver used as a test oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, NonFiniteError, RankDeficientError, SingularMatrixError
from .matrix import MACHINE_EPS, DenseMatrix, _norm2_arr, _seq_sum

DEFAULT_TOL = 1e-8

# Gate for declaring a QR diagonal "zero" during condition-number estimation.
# Deliberately far below rounding noise so that matrices conditioned near
# 1/eps still get a kappa estimate; only pivots that collapsed essentially
# to zero trip it.
_SINGULAR_GATE_FACTOR = 1e-2 * MACHINE_EPS


@dataclass(frozen=True)
class NormEstimate:
    """A nonnegative norm estimate.  When ``converged`` is false the value
    is still a valid lower bound on the true norm."""

    value: float
    iterations: int
    converged: bool


def _default_max_iter(dim: int) -> int:
    return 5 * dim + 100


def _power_iteration(
    apply_fn: Callable[[np.ndarray], np.ndarray],
    apply_t_fn: Callable[[np.ndarray], np.ndarray],
    dim: int,
    tol: float,
    max_iter: int,
) -> tuple[float, int, bool]:
    """Largest singular value of the operator X via power iteration on
    X^T X, applied as x -> X^T (X x).  Convergence is declared when the
    relative change of the Rayleigh quotient drops below tol.

    Starts from the normalized all-ones vector; if that run stalls without
    converging (the start may be nearly orthogonal to the dominant
    subspace), retries from e_1 and keeps the better estimate.
    """

    def run(x0: np.ndarray) -> tuple[float, int, bool]:
        x = x0
        prev = None
        for it in range(1, max_iter + 1):
            y = apply_fn(x)
            rq = _seq_sum(y * y)
            if not np.isfinite(rq):
                return float("inf"), it, False
            if rq == 0.0:
                return 0.0, it, False
            if prev is not None and abs(rq - prev) <= tol * rq:
                return float(np.sqrt(rq)), it, True
            prev = rq
            w = apply_t_fn(y)
            nw = _norm2_arr(w)
            if nw == 0.0 or not np.isfinite(nw):
                return float(np.sqrt(rq)), it, False
            x = w / nw
        return float(np.sqrt(prev)), max_iter, False

    ones = np.full(dim, 1.0 / np.sqrt(dim))
    value, iters, converged = run(ones)
    if not converged:
        e1 = np.zeros(dim)
        e1[0] = 1.0
        v2, it2, c2 = run(e1)
        iters += it2
        if v2 > value or (c2 and not converged):
            value, converged = max(value, v2), c2
    return value, iters, converged


def spectral_norm(
    x: DenseMatrix, tol: float = DEFAULT_TOL, max_iter: int | None = None
) -> NormEstimate:
    """Two-norm estimate of ``x`` by power iteration on X^T X.

    The product X^T X is never formed; the iteration applies
    x -> X^T (X x).  The zero matrix returns value 0, converged.  An
    estimate that overflows (or a matrix holding NaN) raises
    :class:`NonFiniteError`.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    xa = x.array
    if not xa.any():
        return NormEstimate(0.0, 0, True)
    if max_iter is None:
        max_iter = _default_max_iter(x.cols)
    value, iters, converged = _power_iteration(
        lambda v: xa @ v, lambda v: xa.T @ v, x.cols, tol, max_iter
    )
    if not np.isfinite(value):
        raise NonFiniteError("spectral norm estimate is not finite")
    return NormEstimate(value, iters, converged)


def inverse_norm(m: DenseMatrix, tol: float = DEFAULT_TOL) -> NormEstimate:
    """Estimate 1 / sigma_min(M) by inverse power iteration.

    For square M this is ||M^{-1}||.  M is factored once with Householder
    QR (M = Q R); since Q does not move singular values, the iteration
    applies R^{-1} and R^{-T} by triangular substitution.  Raises
    :class:`SingularMatrixError` if M is singular to working precision
    (a QR diagonal collapses essentially to zero, or the iteration blows
    up).  Rectangular input must have at least as many rows as columns.
    """
    from .householder import thin_householder_qr
    from .triangular import _back_substitute_arr, _solve_upper_transposed_arr

    if m.rows < m.cols:
        raise DimensionError(f"inverse_norm needs rows >= cols, got {m.rows}x{m.cols}")
    try:
        fac = thin_householder_qr(m, rank_tol=0.0)
    except RankDeficientError as exc:
        raise SingularMatrixError("singular-to-working-precision") from exc
    ra = fac.r.array
    norm_m = float(np.max(np.abs(ra)))  # cheap scale proxy, only gates zeros
    gate = _SINGULAR_GATE_FACTOR * norm_m
    if float(np.min(np.abs(np.diag(ra)))) <= gate:
        raise SingularMatrixError("singular-to-working-precision")

    value, iters, converged = _power_iteration(
        lambda v: _solve_upper_transposed_arr(ra, v),
        lambda v: _back_substitute_arr(ra, v),
        m.cols,
        tol,
        _default_max_iter(m.cols),
    )
    if not np.isfinite(value):
        raise SingularMatrixError("singular-to-working-precision")
    return NormEstimate(value, iters, converged)


def condition_number(m: DenseMatrix, tol: float = DEFAULT_TOL) -> NormEstimate:
    """Estimate kappa(M) = sigma_max(M) / sigma_min(M).

    The largest singular value comes from ``spectral_norm``, the smallest
    from inverse iteration through a Householder QR of M (transposed
    first if it is wider than tall).  Both are estimates; ``converged``
    reflects both iterations.
    """
    from .matrix import transpose

    if m.rows < m.cols:
        m = transpose(m)
    big = spectral_norm(m, tol=tol)
    if big.value == 0.0:
        raise SingularMatrixError("singular-to-working-precision")
    inv = inverse_norm(m, tol=tol)
    kappa = big.value * inv.value
    if not np.isfinite(kappa):
        raise NonFiniteError("condition number estimate overflowed")
    return NormEstimate(
        kappa, big.iterations + inv.iterations, big.converged and inv.converged
    )


_JACOBI_MAX_DIM = 64


def jacobi_eigenvalues(s, max_sweeps: int = 60, dtype=np.float64) -> np.ndarray:
    """All eigenvalues of a small symmetric matrix by cyclic Jacobi sweeps.

    Test oracle for dimensions <= 64.  ``dtype`` may be ``np.longdouble``
    for extra-precision verification.  Returns eigenvalues ascending.
    """
    a = np.array(s.array if isinstance(s, DenseMatrix) else s, dtype=dtype)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"eigensolver needs a square matrix, got {a.shape}")
    if n > _JACOBI_MAX_DIM:
        raise DimensionError(f"eigensolver oracle is limited to {_JACOBI_MAX_DIM}, got {n}")
    eps = np.finfo(dtype).eps
    one = dtype(1.0)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.square(a - np.diag(np.diag(a)))))
        scale = np.sqrt(np.sum(np.square(a)))
        if scale == 0.0 or off <= eps * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(one + theta * theta))
                if theta == 0.0:
                    t = one
                c = one / np.sqrt(one + t * t)
                sn = t * c
                rot_p = c * a[:, p] - sn * a[:, q]
                rot_q = sn * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - sn * a[q, :]
                rot_q = sn * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    return np.sort(np.diag(a))


def exact_singular_values(x, dtype=np.float64) -> np.ndarray:
    """Singular values (descending) via Jacobi on the explicitly formed
    Gram matrix X^T X.  Oracle only; independent of the estimator path."""
    xa = np.array(x.array if isinstance(x, DenseMatrix) else x, dtype=dtype)
    gram = xa.T @ xa
    evs = jacobi_eigenvalues(gram, dtype=dtype)
    return np.sqrt(np.clip(evs, 0.0, None))[::-1]


def exact_spectral_norm(x, dtype=np.float64) -> float:
    """Largest singular value via the Jacobi oracle (dim <= 64)."""
    return float(exact_singular_values(x, dtype=dtype)[0])

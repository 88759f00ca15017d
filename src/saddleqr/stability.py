"""Stability metrics, orthogonality-defect bounds and the backward-error
certificate for QR-based linear solves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSolutionError, DimensionError, HypothesisError, NonFiniteError
from .householder import ThinQR
from .matrix import MACHINE_EPS, DenseMatrix, Vector, _norm2_arr, vector_norm
from .norms import condition_number, inverse_norm, spectral_norm


def _norm(xa: np.ndarray) -> float:
    """Spectral norm of a raw array, wrapped without a copy."""
    return spectral_norm(DenseMatrix._wrap(xa)).value


def _gram_defect(qa: np.ndarray) -> float:
    """||I - Q^T Q||."""
    return _norm(np.eye(qa.shape[1]) - qa.T @ qa)


def _factor_defects(
    xa: np.ndarray, qa: np.ndarray, ra: np.ndarray, norm_x: float
) -> tuple[float, float]:
    """(||I - Q^T Q||, ||X - Q R|| / ||X||) of a factorization X = Q R."""
    return _gram_defect(qa), _norm(xa - qa @ ra) / norm_x


def qr_residuals(x: DenseMatrix, f: ThinQR) -> tuple[float, float]:
    """Orthogonality and decomposition errors of a thin QR, in units of eps.

    Returns (orth, dec) with orth = ||I - Q^T Q|| / eps and
    dec = ||X - Q R|| / (eps ||X||), all norms spectral.
    """
    q, r = f.q, f.r
    if q.rows != x.rows or q.cols != r.rows or r.cols != x.cols:
        raise DimensionError(
            f"inconsistent factor shapes {q.shape} / {r.shape} for {x.shape}"
        )
    orth, dec = _factor_defects(x.array, q.array, r.array, _norm(x.array))
    return orth / MACHINE_EPS, dec / MACHINE_EPS


@dataclass(frozen=True)
class StabilityReport:
    """The four solve-quality ratios, in units of machine precision, plus
    the condition number of the system matrix.

    orth = ||I - Q^T Q|| / eps
    dec  = ||M - Q R|| / (eps ||M||)
    res  = ||M z - f|| / (eps ||M|| ||z||)
    stab = ||z - z*|| / (eps kappa(M) ||z||)

    A metric that is not finite raises :class:`NonFiniteError`; a
    negative one raises ValueError.
    """

    kappa: float
    orth: float
    dec: float
    res: float
    stab: float

    def __post_init__(self):
        for name in ("kappa", "orth", "dec", "res", "stab"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise NonFiniteError(f"metric {name} is not finite ({v})")
            if v < 0.0:
                raise ValueError(f"metric {name} must be nonnegative, got {v}")


def metrics(
    m: DenseMatrix,
    q: DenseMatrix,
    r: DenseMatrix,
    f: Vector,
    z_computed: Vector,
    z_star: Vector,
    *,
    kappa: float | None = None,
    norm_m: float | None = None,
) -> StabilityReport:
    """Measure a solve M z = f produced through the factorization (Q, R).

    ``kappa`` and ``norm_m`` may be passed in to reuse values when
    several methods are scored against the same matrix.
    """
    l = m.rows
    if m.cols != l or q.shape != (l, l) or r.shape != (l, l):
        raise DimensionError(
            f"metrics needs square M, Q, R of one size, got {m.shape}, {q.shape}, {r.shape}"
        )
    if len(f) != l or len(z_computed) != l or len(z_star) != l:
        raise DimensionError("vector lengths do not match the system size")
    norm_z = vector_norm(z_computed)
    if norm_z == 0.0:
        raise DegenerateSolutionError("degenerate solution for metric normalization")
    if norm_m is None:
        norm_m = spectral_norm(m).value
    if kappa is None:
        kappa = condition_number(m).value

    orth, dec = _factor_defects(m.array, q.array, r.array, norm_m)
    res = _norm2_arr(m.array @ z_computed.array - f.array) / (MACHINE_EPS * norm_m * norm_z)
    stab = vector_norm(z_computed - z_star) / (MACHINE_EPS * kappa * norm_z)
    return StabilityReport(
        kappa=kappa, orth=orth / MACHINE_EPS, dec=dec / MACHINE_EPS, res=res, stab=stab
    )


class Lemma1Bounds(NamedTuple):
    beta: float
    norm_q: float
    norm_q_inverse: float
    right_defect: float


def lemma1_bounds(qt: DenseMatrix) -> Lemma1Bounds:
    """Measured quantities for the near-orthogonality bounds.

    For square Qt with beta = ||I - Qt^T Qt|| < 1 the following hold:
    ||Qt|| <= sqrt(1 + beta), ||Qt^{-1}|| <= 1 / sqrt(1 - beta), and
    ||I - Qt Qt^T|| <= beta.  This returns the measured left defect beta,
    ||Qt||, ||Qt^{-1}|| and the right defect; beta >= 1 raises.
    """
    if qt.rows != qt.cols:
        raise DimensionError(f"lemma1_bounds needs a square matrix, got {qt.shape}")
    qa = qt.array
    beta = _gram_defect(qa)
    if beta >= 1.0:
        raise HypothesisError(f"Lemma 1 hypothesis violated: defect {beta:.3e} >= 1")
    norm_q = spectral_norm(qt).value
    norm_q_inv = inverse_norm(qt).value
    right = _gram_defect(qa.T)
    return Lemma1Bounds(beta=beta, norm_q=norm_q, norm_q_inverse=norm_q_inv, right_defect=right)


def theorem1_bound(alpha: float, beta: float, gamma: float, delta: float) -> tuple[float, float]:
    """Perturbation factors (mu, nu) certifying (M + dM) z = f + df.

    mu = alpha + gamma (1 + alpha) sqrt((1 + beta) / (1 - beta))
    nu = beta + delta (1 + beta)

    The f-side factor scales with delta (the Q-application backward factor):
    tracing the perturbation of Q^T f gives ||df|| <= ||I - Q Q^T|| +
    delta ||Q||^2, so the triangular-solve factor gamma plays no role in nu.
    """
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("delta", delta)):
        if not (math.isfinite(v) and v >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    if beta >= 1.0:
        raise HypothesisError(f"bound requires beta < 1, got {beta}")
    mu = alpha + gamma * (1.0 + alpha) * math.sqrt((1.0 + beta) / (1.0 - beta))
    nu = beta + delta * (1.0 + beta)
    return mu, nu


@dataclass(frozen=True)
class PerturbationBound:
    """Measured certificate inputs and outputs.

    When ``hypotheses_ok`` is false (beta >= 1 or alpha * kappa >= 1) the
    certificate does not apply and mu, nu are +inf.  That outcome is
    reported, not raised: it is the expected result for unstable
    factorizations of ill-conditioned systems.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    mu: float
    nu: float
    kappa: float
    hypotheses_ok: bool


def backward_certificate(
    m: DenseMatrix,
    q: DenseMatrix,
    r: DenseMatrix,
    f: Vector,
    z_computed: Vector,
    *,
    gamma: float | None = None,
    delta: float | None = None,
) -> PerturbationBound:
    """Measure alpha and beta for a factorization and evaluate the
    perturbation bound.

    gamma and delta default to eps * l, the standard backward-error level
    of triangular solves and orthogonal-factor application.
    """
    l = m.rows
    if m.cols != l or q.shape != (l, l) or r.shape != (l, l):
        raise DimensionError(
            f"certificate needs square M, Q, R of one size, got {m.shape}, {q.shape}, {r.shape}"
        )
    if len(f) != l or len(z_computed) != l:
        raise DimensionError("vector lengths do not match the system size")
    if gamma is None:
        gamma = MACHINE_EPS * l
    if delta is None:
        delta = MACHINE_EPS * l
    norm_m = spectral_norm(m).value
    beta, alpha = _factor_defects(m.array, q.array, r.array, norm_m)
    kappa = condition_number(m).value
    ok = beta < 1.0 and alpha * kappa < 1.0
    if ok:
        mu, nu = theorem1_bound(alpha, beta, gamma, delta)
    else:
        mu = nu = float("inf")
    return PerturbationBound(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        delta=delta,
        mu=mu,
        nu=nu,
        kappa=kappa,
        hypotheses_ok=ok,
    )

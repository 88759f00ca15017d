"""Spectral norm and condition number by direct LAPACK calls.
Nothing iterates in Python: each call returns a value accurate to rounding
or raises a typed LinAlgError.

A symmetric operand is reduced once to tridiagonal form (``dsytrd``).  A
norm needs only the end eigenvalues, which bisection (``dstebz``) finds to
full accuracy in O(n) work each; only sigma_min of a symmetric matrix needs
every eigenvalue, which ``dsterf`` computes from a copy of the same
reduction (the bytes of ``numpy.linalg.eigvalsh``, whose path that is).
All three run through ``_openblas``, which releases the GIL for each call,
so ``bench`` scores a row on one thread while it solves on another.  A
nonsymmetric operand takes ``numpy.linalg.svd``.  Without the bundled
OpenBLAS, ``numpy.linalg.eigvalsh`` gives every eigenvalue and the ends,
which then differ from bisection's at rounding level."""

from __future__ import annotations

import numpy as np

from . import _openblas
from .errors import NonConvergedError, NonFiniteError, SingularMatrixError
from .matrix import MACHINE_EPS, DenseMatrix, _scaled

# M is singular to working precision when sigma_min <= this factor times
# sigma_max, or sigma_min is not a normal float.  Far below rounding noise,
# so kappa near 1/eps is still reported; no kappa that passes can overflow.
_SINGULAR_GATE_FACTOR = 1e-3 * MACHINE_EPS


def _converged(routine, a: np.ndarray) -> np.ndarray:
    """``routine(a)``, a LAPACK convergence failure raised as NonConvergedError."""
    try:
        return routine(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergedError(f"LAPACK did not converge: {exc}") from exc


class _Spectrum:
    """The eigenvalues of the symmetric ``y``, reduced once and read on demand;
    ``y`` is overwritten.  dsytrd reads the lower triangle of y's column-major
    storage: y's own lower triangle when y is F-ordered, as
    ``numpy.linalg.eigvalsh`` reads it, and its upper triangle when y is
    C-ordered, the same numbers for an exactly symmetric y.  A LAPACK
    convergence failure raises :class:`NonConvergedError`."""

    def __init__(self, y: np.ndarray):
        if _openblas.library() is None:
            self._every, self._tridiagonal = _converged(np.linalg.eigvalsh, y), None
        else:
            self._every, self._tridiagonal = None, _openblas.dsytrd(y)
        self._n = len(y)

    def eigenvalue(self, i: int) -> float:
        """Eigenvalue i of the ascending order, counted from the top if negative."""
        if self._tridiagonal is None:
            return float(self._every[i])
        return _openblas.dstebz(*self._tridiagonal, i % self._n + 1)

    def ends(self) -> tuple[float, float]:
        """(lambda_min, lambda_max)."""
        return self.eigenvalue(0), self.eigenvalue(-1)

    def abs_max(self) -> float:
        """max |lambda|, from the two ends."""
        return max(abs(end) for end in self.ends())

    def every(self) -> np.ndarray:
        """All eigenvalues, ascending."""
        if self._every is None:
            d, e = (v.copy() for v in self._tridiagonal)
            _openblas.dsterf(d, e)
            self._every = d
        return self._every


def _finite_norm(value: float) -> float:
    """``value``, or :class:`NonFiniteError` if it is past the float range."""
    if not np.isfinite(value):
        raise NonFiniteError("spectral norm is not finite")
    return value


def _extreme_singular_values(xa: np.ndarray) -> tuple[float, float]:
    """(sigma_max, sigma_min) of X from Y = X / max|X|, the |eigenvalues| of
    Y when X is exactly symmetric (Golub & Van Loan, Matrix Computations,
    8.1): sigma_max from the two ends, sigma_min from every eigenvalue.
    Otherwise both come from ``svd(Y)``.  A sigma_max past the float range
    raises :class:`NonFiniteError`."""
    symmetric = np.array_equal(xa, xa.T)
    scale, y = _scaled(xa)
    if symmetric:
        spectrum = _Spectrum(y)
        sigma_max, sigma_min = spectrum.abs_max(), np.min(np.abs(spectrum.every()))
    else:
        sv = _converged(lambda a: np.linalg.svd(a, compute_uv=False), y)
        sigma_max, sigma_min = np.max(sv), np.min(sv)
    return _finite_norm(scale * float(sigma_max)), scale * float(sigma_min)


def _nonsingular(sigma_max: float, sigma_min: float) -> float:
    """``sigma_min``, or :class:`SingularMatrixError` if the gate rejects it."""
    if sigma_min <= _SINGULAR_GATE_FACTOR * sigma_max or not sigma_min >= np.finfo(float).tiny:
        raise SingularMatrixError("singular-to-working-precision")
    return sigma_min


def _gram_norm(xa: np.ndarray, overwrite: bool = False) -> float:
    """Two-norm of any raw array, scale * sqrt(lambda_max) of the Gram
    matrix of Y = X / scale on the smaller side of X, with no symmetry scan:
    for operands such as M - Q R, which are not symmetric by construction.
    With ``overwrite`` X is scaled in place."""
    scale, y = _scaled(xa, xa if overwrite else None)
    gram = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
    return _finite_norm(scale * float(np.sqrt(max(_Spectrum(gram).eigenvalue(-1), 0.0))))


def _two_norm(xa: np.ndarray, overwrite: bool = False) -> float:
    """:func:`spectral_norm` of a raw array: one symmetry scan, one scaling
    and one eigensolve, all in X itself with ``overwrite``."""
    if not np.array_equal(xa, xa.T):
        return _gram_norm(xa, overwrite)
    scale, y = _scaled(xa, xa if overwrite else None)
    return _finite_norm(scale * _Spectrum(y).abs_max())


def spectral_norm(x: DenseMatrix) -> float:
    """Two-norm of ``x``: its largest |eigenvalue| if it is symmetric, else
    scale * sqrt(lambda_max(Y^T Y)), Y = X / scale, scale = max|X|, with the
    Gram matrix on the smaller side of X (cheaper than an SVD, as for the
    defect M - QR).  The zero matrix returns 0; inf or NaN input, or a norm
    past the float range, raises :class:`NonFiniteError`."""
    return _two_norm(x.array)


def condition_number(m: DenseMatrix) -> float:
    """kappa(M) = sigma_max(M) / sigma_min(M).  Raises
    :class:`SingularMatrixError` if M is singular to working precision."""
    sigma_max, sigma_min = _extreme_singular_values(m.array)
    return sigma_max / _nonsingular(sigma_max, sigma_min)

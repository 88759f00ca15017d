"""Independent reference implementations used as test oracles.

Deliberately written against plain numpy arrays with naive algorithms so
they share no code path with the package under test.
"""

from __future__ import annotations

import numpy as np

from saddleqr import DenseMatrix, DimensionError, ZeroDiagonalError
from saddleqr.householder import _thin_qr
from saddleqr.rng import _polar, mix64, standard_normals


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive product, innermost index ascending (the bitwise reference)."""
    r, kk = a.shape
    c = b.shape[1]
    out = np.zeros((r, c))
    for i in range(r):
        for j in range(c):
            s = 0.0
            for k in range(kk):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def gauss_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting on a dense square system."""
    a = a.astype(np.float64).copy()
    x = rhs.astype(np.float64).copy()
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError(f"singular at column {col}")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            x[[col, pivot]] = x[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            x[row] -= factor * x[col]
    z = np.zeros(n)
    for row in range(n - 1, -1, -1):
        z[row] = (x[row] - a[row, row + 1 :] @ z[row + 1 :]) / a[row, row]
    return z


def row_back_substitute(ra: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-oriented back-substitution, bottom row first: z_i = (g_i - s_i)
    / r_ii with s_i the serial sum of r_ij z_j over j = l-1 down to i+1
    (started from its first term, not from 0.0).  The first row met with
    |r_ii| below the smallest normal float raises ZeroDiagonalError.  The
    bitwise reference for ``triangular._column_sweep``."""
    n = ra.shape[0]
    z = np.zeros(n)
    for i in range(n - 1, -1, -1):
        if abs(ra[i, i]) < np.finfo(np.float64).tiny:
            raise ZeroDiagonalError(i)
        terms = (ra[i, i + 1 :] * z[i + 1 :])[::-1]
        s = float(np.cumsum(terms)[-1]) if terms.size else 0.0
        z[i] = (g[i] - s) / ra[i, i]
    return z


def loop_cholesky(a: np.ndarray) -> tuple[np.ndarray | None, int | None, float]:
    """Column-by-column Cholesky A = L L^T, returning (L, None, min pivot)
    on success and (None, j, pivot j) at the first pivot j <= 0.  Pivot j
    is a_jj minus the serial sum of l_jk^2 over k < j; each entry below it
    is (a_ij - serial sum of l_ik l_jk) / l_jj.  The reference for
    ``saddle.validate``'s verdict on A, LAPACK ``dpotrf``'s success."""
    n = a.shape[0]
    low = np.zeros((n, n))
    min_pivot = np.inf
    for j in range(n):
        pivot = a[j, j] - (float(np.cumsum(low[j, :j] ** 2)[-1]) if j else 0.0)
        min_pivot = min(min_pivot, pivot)
        if pivot <= 0.0:
            return None, j, pivot
        low[j, j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            s = float(np.cumsum(low[i, :j] * low[j, :j])[-1]) if j else 0.0
            low[i, j] = (a[i, j] - s) / low[j, j]
    return low, None, min_pivot


def cramer_solve_3x3(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cramer's rule for a 3x3 system via explicit determinants."""

    def det3(m: np.ndarray) -> float:
        return (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )

    d = det3(a)
    out = np.zeros(3)
    for j in range(3):
        mj = a.copy()
        mj[:, j] = rhs
        out[j] = det3(mj) / d
    return out


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


def q_by_column_application(x: DenseMatrix) -> DenseMatrix:
    """Alternate thin QR Q by an unblocked textbook reflector chain.

    Reflector j is I - tau v v^T with v = x + sign(x_0) ||x|| e_0
    (sign(0) = +1) and tau = 2 / v^T v, x the updated column j on rows
    j..l-1, applied to the remaining columns one column at a time.  Q is
    the chain applied to each identity column independently, with the
    columns whose R diagonal came out negative negated.  Used to
    cross-check ``thin_householder_qr``; the two agree to rounding for
    full-column-rank input."""
    w = np.array(x.array, dtype=np.float64)
    l, k = w.shape
    chain = []
    for j in range(k):
        v = w[j:, j].copy()
        v[0] += (1.0 if v[0] >= 0.0 else -1.0) * np.sqrt(v @ v)
        tau = 2.0 / (v @ v)
        for c in range(j, k):
            w[j:, c] -= (tau * (v @ w[j:, c])) * v
        chain.append((v, tau))
    q = np.zeros((l, k))
    for c in range(k):
        y = np.zeros(l)
        y[c] = 1.0
        for j in range(k - 1, -1, -1):
            v, tau = chain[j]
            y[j:] -= (tau * (v @ y[j:])) * v
        q[:, c] = y
    q[:, np.diag(w) < 0.0] *= -1.0
    return DenseMatrix(q)


def _full_positive_q(n: int, seed: int) -> np.ndarray:
    """Positive-diagonal Q of the full QR of the seeded n x n normals."""
    if n == 1:
        return np.ones((1, 1))
    q, r = np.linalg.qr(standard_normals(seed, n * n).reshape((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def full_qr_matrix1(m: int, n: int, s: float, seed: int) -> np.ndarray:
    """``matrix1`` as built from the full m x m QR: P is the first n
    columns of the whole orthogonal factor of the same seeded normals,
    and P D Q^T is formed with numpy alone."""
    p = _full_positive_q(m, mix64(seed, 1))[:, :n]
    qf = _full_positive_q(n, mix64(seed, 2))
    d = 10.0 ** (-s * np.arange(n) / (n - 1)) if n > 1 else np.array([10.0**-s])
    return (p * d) @ qf.T


def copy_path_bcgs(xa: np.ndarray, m: int,
                   reorthogonalize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(Q, R) of ``bcgs``, or of ``bcgs2`` with ``reorthogonalize``, as the
    package computed them before its panels were factored in place: each
    panel factored on a copy by ``_thin_qr`` and stored back into a
    row-major l x l Q.  Unlike the other oracles it shares the panel QR
    kernel with the package: it pins the layout, not the QR."""
    l = xa.shape[0]
    q, r = np.empty((l, l)), np.zeros((l, l))
    q[:, :m], r[:m, :m] = _thin_qr(xa[:, :m])
    q1, m2 = q[:, :m], xa[:, m:]
    s = q1.T @ m2
    q[:, m:], r[m:, m:] = _thin_qr(m2 - q1 @ s)
    r[:m, m:] = s
    if reorthogonalize:
        q2, r2 = q[:, m:], r[m:, m:]
        s2 = q1.T @ q2
        q3, r3 = _thin_qr(q2 - q1 @ s2)
        r[:m, m:] += s2 @ r2
        r[m:, m:] = r3 @ r2
        q[:, m:] = q3
    return q, r


def two_trig_normals_at(seed: int, count: int, idx: np.ndarray) -> np.ndarray:
    """``rng.normals_at`` as first written: cos and sin of every angle, then
    the one each entry needs.  It shares the Box-Muller pairs with the
    package and pins only the trig selection."""
    pairs = (count + 1) // 2
    idx = np.asarray(idx, dtype=np.int64)
    radius, angle = _polar(seed, (idx % pairs + 1).astype(np.uint64))
    return radius * np.where(idx < pairs, np.cos(angle), np.sin(angle))

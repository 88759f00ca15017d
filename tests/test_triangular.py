from fractions import Fraction

import numpy as np
import pytest

from saddleqr import (
    DenseMatrix,
    DimensionError,
    Vector,
    ZeroDiagonalError,
    bcgs,
    bcgs2,
    mat_vec,
    matmul,
    matrix2,
    vector_norm,
)
from saddleqr import _openblas
from saddleqr.householder import _thin_qr
from saddleqr.matrix import MACHINE_EPS
from saddleqr.rng import _uniforms_at, mix64, standard_normals
from saddleqr.testgen import hilbert
from saddleqr.triangular import _back_substitute_arr, _column_sweep, back_substitute, cholesky

from _oracles import exact_singular_values, loop_cholesky, row_back_substitute


def random_upper(n, seed, diag_boost=2.0):
    a = standard_normals(seed, n * n).reshape(n, n)
    r = np.triu(a)
    r[np.diag_indices(n)] += np.sign(r[np.diag_indices(n)]) * diag_boost
    return DenseMatrix(r)


def scaled_upper(seed):
    """The oracle tests' upper R and g, n = 1 + 7 seed mod 61.  Row i is scaled
    by 10^a_i and column j by 10^b_j, a, b in {-150, 0, 150}: z_j ~ 10^-b_j,
    and every product in row i is ~ 10^a_i."""
    n = 1 + 7 * seed % 61
    exps = 150.0 * (np.floor(3.0 * np.abs(standard_normals(900 + seed, 2 * n))) % 3 - 1)
    rows, cols = 10.0 ** exps[:n], 10.0 ** exps[n:]
    ra = random_upper(n, 300 + seed).array * rows[:, None] * cols[None, :]
    return ra, standard_normals(400 + seed, n) * rows


class TestBackSubstitute:
    def test_identity(self):
        g = Vector([3.0, -1.0, 2.5])
        z = back_substitute(DenseMatrix(np.eye(3)), g)
        assert np.array_equal(z.array, g.array)

    def test_hand_example(self):
        r = DenseMatrix([[2.0, 1.0], [0.0, 4.0]])
        z = back_substitute(r, Vector([4.0, 8.0]))
        assert np.array_equal(z.array, [1.0, 2.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_construct_then_solve(self, seed):
        r = random_upper(6, seed)
        z_true = standard_normals(seed + 50, 6)
        g = mat_vec(r, Vector(z_true))
        z = back_substitute(r, g)
        sv = exact_singular_values(r)
        kappa = float(sv[0] / sv[-1])
        rel = vector_norm(Vector(z.array - z_true)) / vector_norm(Vector(z_true))
        assert rel <= 1e3 * MACHINE_EPS * kappa

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_roundtrip(self, seed):
        # ||R z - g|| <= 1e2 eps ||R|| ||z||
        r = random_upper(8, 100 + seed)
        g = Vector(standard_normals(seed + 7, 8))
        z = back_substitute(r, g)
        resid = vector_norm(mat_vec(r, z) - g)
        norm_r = float(exact_singular_values(r)[0])
        assert resid <= 1e2 * MACHINE_EPS * norm_r * vector_norm(z)

    @pytest.mark.parametrize("seed", range(40))
    def test_column_sweep_matches_row_oracle_bitwise(self, seed):
        ra, g = scaled_upper(seed)
        z = _column_sweep(ra, g)
        assert z.tobytes() == row_back_substitute(ra, g).tobytes()

    def test_signed_zeros_match_row_oracle(self):
        # z_1 = -0.0, so row 0 sums the single product 1 * -0.0 = -0.0 and
        # z_0 = -0.0 - (-0.0) = +0.0; a sum started from +0.0 would give -0.0.
        ra = np.array([[1.0, 1.0], [0.0, 1.0]])
        z = _column_sweep(ra, np.array([-0.0, -0.0]))
        assert z.tobytes() == np.array([0.0, -0.0]).tobytes()
        for seed in range(10):
            n = 12
            ra = random_upper(n, 500 + seed).array
            pick = np.abs(standard_normals(600 + seed, 2 * n * n)).reshape(2, n, n)
            ra = np.where(np.triu(pick[0] < 0.7, 1), np.copysign(0.0, pick[1] - 0.7), ra)
            g = np.copysign(0.0, standard_normals(700 + seed, n))
            g[::3] = standard_normals(800 + seed, n)[::3]
            assert _column_sweep(ra, g).tobytes() == row_back_substitute(ra, g).tobytes()

    @pytest.mark.parametrize("zero_rows", [(0,), (2, 5), (7,), (0, 3, 7)])
    def test_zero_diagonal_row_matches_row_oracle(self, zero_rows):
        ra = random_upper(8, 40).array.copy()
        subnormal = float(np.finfo(np.float64).tiny) / 4.0
        ra[zero_rows, zero_rows] = [0.0, subnormal, -0.0][: len(zero_rows)]
        g = standard_normals(41, 8)
        with pytest.raises(ZeroDiagonalError) as expected:
            row_back_substitute(ra, g)
        with pytest.raises(ZeroDiagonalError) as exc:
            _back_substitute_arr(ra, g)
        assert exc.value.row == expected.value.row == max(zero_rows)

    def test_zero_diagonal_names_row(self):
        r = DenseMatrix([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ZeroDiagonalError, match="row 1") as exc:
            back_substitute(r, Vector([1.0, 1.0]))
        assert exc.value.row == 1

    def test_subnormal_diagonal_rejected(self):
        tiny = float(np.finfo(np.float64).tiny) / 4.0
        r = DenseMatrix([[tiny]])
        with pytest.raises(ZeroDiagonalError):
            back_substitute(r, Vector([1.0]))

    def test_requires_upper_triangular(self):
        with pytest.raises(ValueError):
            back_substitute(DenseMatrix([[1.0, 0.0], [2.0, 1.0]]), Vector([1.0, 1.0]))

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            back_substitute(DenseMatrix([[1.0, 2.0]]), Vector([1.0]))
        with pytest.raises(DimensionError):
            back_substitute(DenseMatrix(np.eye(2)), Vector([1.0, 2.0, 3.0]))


needs_openblas = pytest.mark.skipif(
    _openblas.library() is None, reason="numpy bundles no OpenBLAS, so no dtrsv path"
)


@needs_openblas
class TestBlasPath:
    """``_back_substitute_arr`` on OpenBLAS dtrsv against the column sweep, the
    one path without the bundled library."""

    @pytest.mark.parametrize("seed", range(40))
    def test_without_openblas_is_the_column_sweep(self, seed, no_openblas):
        ra, g = scaled_upper(seed)
        no_openblas()
        assert _back_substitute_arr(ra, g).tobytes() == _column_sweep(ra, g).tobytes()

    @pytest.mark.parametrize("seed", range(40))
    def test_componentwise_backward_error(self, seed):
        # Higham, Accuracy and Stability of Numerical Algorithms, Thm 8.5:
        # (R + dR) z = g with |dR| <= gamma_n |R|, for any summation order.  So
        # |g - R z| <= gamma_n |R| |z|, checked here in exact rational arithmetic,
        # with gamma_n = n u / (1 - n u) at the unit roundoff u = eps / 2.
        ra, g = scaled_upper(seed)
        z = _back_substitute_arr(ra, g)
        n = len(g)
        nu = n * Fraction(MACHINE_EPS) / 2
        gamma = nu / (1 - nu)
        zf = [Fraction(v) for v in z]
        for i in range(n):
            terms = [Fraction(ra[i, j]) * zf[j] for j in range(i, n)]
            resid = abs(Fraction(g[i]) - sum(terms))
            assert resid <= gamma * sum(abs(t) for t in terms), (i, float(resid))

    @pytest.mark.parametrize("l", [300, 600])
    def test_bytes_do_not_depend_on_thread_count(self, l):
        # The R of bcgs, bcgs2 and Householder QR of one random square, and a
        # random upper triangle (ill conditioned).
        lib = _openblas.library()
        x = standard_normals(l, l * l).reshape(l, l)
        uppers = [method(DenseMatrix(x), 2 * l // 3).r.array for method in (bcgs, bcgs2)]
        uppers += [_thin_qr(x)[1], random_upper(l, l + 1).array]
        g = standard_normals(l + 2, l)
        before = lib.scipy_openblas_get_num_threads64_()
        try:
            for ra in uppers:
                zs = []
                for threads in (1, 2):
                    lib.scipy_openblas_set_num_threads64_(threads)
                    zs.append(_back_substitute_arr(ra, g).tobytes())
                assert zs[0] == zs[1]
        finally:
            lib.scipy_openblas_set_num_threads64_(before)

    def test_leaves_r_and_g_alone(self):
        ra, g = scaled_upper(9)
        ra_before, g_before = ra.tobytes(), g.tobytes()
        z = _back_substitute_arr(ra, g)
        assert ra.tobytes() == ra_before and g.tobytes() == g_before
        assert not np.shares_memory(z, g)
        # Strided views, as cholesky passes: a reversed lower triangle and a column of A.
        low, a = random_upper(9, 3).array.T, standard_normals(4, 100).reshape(10, 10)
        low_before, a_before = low.tobytes(), a.tobytes()
        z = _back_substitute_arr(low[::-1, ::-1], a[8::-1, 9])
        assert low.tobytes() == low_before and a.tobytes() == a_before
        assert not np.shares_memory(z, a)

    @pytest.mark.parametrize("zero_rows", [(0,), (2, 5), (7,), (0, 3, 7)])
    def test_zero_diagonal_row_is_the_same_without_openblas(self, zero_rows, no_openblas):
        ra = random_upper(8, 40).array.copy()
        ra[zero_rows, zero_rows] = [0.0, float(np.finfo(np.float64).tiny) / 4.0, -0.0][
            : len(zero_rows)]
        g = standard_normals(41, 8)
        with pytest.raises(ZeroDiagonalError) as blas:
            _back_substitute_arr(ra, g)
        no_openblas()
        with pytest.raises(ZeroDiagonalError) as sweep:
            _back_substitute_arr(ra, g)
        assert blas.value.row == sweep.value.row == max(zero_rows)

    @pytest.mark.parametrize("drop", [False, True], ids=["dtrsv", "no_openblas"])
    def test_shape_mismatch_raises_before_any_solve(self, drop, no_openblas):
        if drop:
            no_openblas()
        ra = random_upper(10, 3).array
        for g in (np.ones(9), np.ones(11), np.ones((10, 1))):
            with pytest.raises(DimensionError):
                _back_substitute_arr(ra, g)
        with pytest.raises(DimensionError):
            _back_substitute_arr(ra[:, :9], np.ones(10))

    def test_strided_operands_match_contiguous_ones(self):
        ra, g = scaled_upper(12)
        big = np.zeros((2 * len(g), 2 * len(g)))
        big[::2, ::2] = ra
        wide = np.zeros(2 * len(g))
        wide[::2] = g
        z = _back_substitute_arr(big[::2, ::2], wide[::2])
        assert z.tobytes() == _back_substitute_arr(ra, g).tobytes()


class TestCholesky:
    def test_identity(self):
        res = cholesky(DenseMatrix(np.eye(3)))
        assert res.ok and np.array_equal(res.factor.array, np.eye(3))

    def test_hand_example(self):
        res = cholesky(DenseMatrix([[4.0, 2.0], [2.0, 2.0]]))
        assert res.ok
        assert np.array_equal(res.factor.array, [[2.0, 0.0], [1.0, 1.0]])

    def test_indefinite_fails_at_second_pivot(self):
        # eigenvalues 3 and -1: not positive definite
        res = cholesky(DenseMatrix([[1.0, 2.0], [2.0, 1.0]]))
        assert not res.ok
        assert res.failed_pivot == 1
        assert res.min_pivot == -3.0

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction(self, seed):
        a = matrix2(10, 3.0, seed)
        res = cholesky(a)
        assert res.ok
        delta = a - matmul(res.factor, DenseMatrix(res.factor.array.T))
        norm_a = float(exact_singular_values(a)[0])
        assert float(exact_singular_values(delta)[0]) <= 1e2 * MACHINE_EPS * norm_a

    def test_verdicts_match_loop_oracle_on_shifted_spd_family(self):
        # S = G G^T / n + I shifted by lambda_min(S) + 0.4 (u - 0.3) (lambda_max - lambda_min),
        # u uniform: about 30% stay SPD, the rest fail at pivots 0 to 34.
        # The pivot gap peaked at 1.1e-11 max|A| on these 400 matrices.
        verdicts = set()
        for i in range(400):
            n = 2 + mix64(77, i) % 38
            g = standard_normals(mix64(78, i), n * n).reshape(n, n)
            s = g @ g.T / n + np.eye(n)
            s = 0.5 * (s + s.T)
            lam = np.linalg.eigvalsh(s)
            u = _uniforms_at(mix64(79, i), np.array([1], dtype=np.uint64))[0]
            a = s - (lam[0] + 0.4 * (u - 0.3) * (lam[-1] - lam[0])) * np.eye(n)
            low, failed_pivot, min_pivot = loop_cholesky(a)
            res = cholesky(DenseMatrix(a))
            assert (res.ok, res.failed_pivot) == (low is not None, failed_pivot)
            assert abs(res.min_pivot - min_pivot) <= 1e-10 * np.max(np.abs(a))
            verdicts.add(res.ok)
        assert verdicts == {True, False}

    def test_example1_hilbert_passes_both_ways(self):
        res = cholesky(hilbert(12))
        assert res.ok and res.min_pivot > 0.0
        assert loop_cholesky(hilbert(12).array)[0] is not None

    def test_positive_diagonal(self):
        res = cholesky(matrix2(8, 2.0, 9))
        assert np.all(np.diag(res.factor.array) > 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky(DenseMatrix([[1.0, 0.5], [0.0, 1.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            cholesky(DenseMatrix([[1.0, 0.0]]))

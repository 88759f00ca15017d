import math

import numpy as np
import pytest

from saddleqr import (
    DenseMatrix,
    DimensionError,
    NonFiniteError,
    SingularMatrixError,
    condition_number,
    hilbert,
    inverse_norm,
    matrix1,
    spectral_norm,
    transpose,
)
from saddleqr.rng import standard_normals

from _oracles import exact_singular_values, exact_spectral_norm, jacobi_eigenvalues

TOL = 1e-8


def rand_matrix(rows, cols, seed):
    return DenseMatrix(standard_normals(seed, rows * cols).reshape(rows, cols))


class TestSpectralNorm:
    def test_diagonal(self):
        est = spectral_norm(DenseMatrix(np.diag([1.0, 10.0])))
        assert est.converged
        assert est.value == pytest.approx(10.0, rel=TOL)

    def test_golden_ratio(self):
        # eigenvalues of X^T X for X = [[1,1],[0,1]] are (3 +- sqrt 5)/2,
        # so the top singular value is sqrt((3 + sqrt 5)/2) = (1 + sqrt 5)/2
        expected = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
        assert expected == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)
        est = spectral_norm(DenseMatrix([[1.0, 1.0], [0.0, 1.0]]))
        assert est.value == pytest.approx(expected, rel=10 * TOL)

    def test_zero_matrix(self):
        est = spectral_norm(DenseMatrix.zeros(3, 3))
        assert est.value == 0.0 and est.converged

    def test_transpose_symmetry(self):
        for seed in range(4):
            x = rand_matrix(7, 4, seed)
            a = spectral_norm(x).value
            b = spectral_norm(transpose(x)).value
            assert a == pytest.approx(b, rel=10 * TOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_against_jacobi_oracle(self, seed):
        x = rand_matrix(9, 6, 30 + seed)
        assert spectral_norm(x).value == pytest.approx(
            exact_spectral_norm(x), rel=1e-6
        )

    def test_nonnegative_lower_bound_contract(self):
        est = spectral_norm(rand_matrix(8, 8, 77))
        assert est.value >= 0.0
        assert est.value <= exact_spectral_norm(rand_matrix(8, 8, 77)) * (1 + 1e-6)


class TestConditionNumber:
    def test_identity(self):
        for size in (1, 3, 7):
            assert condition_number(DenseMatrix.identity(size)).value == pytest.approx(
                1.0, rel=1e-6
            )

    def test_diagonal(self):
        est = condition_number(DenseMatrix(np.diag([1.0, 1e-3])))
        assert est.value == pytest.approx(1e3, rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_diagonal_ratio_property(self, seed):
        d = 10.0 ** (standard_normals(seed, 6) * 2.0)
        est = condition_number(DenseMatrix(np.diag(d)))
        assert est.value == pytest.approx(d.max() / d.min(), rel=1e-6)

    def test_hilbert4_vs_eigen_oracle(self):
        h4 = hilbert(4)
        evs = jacobi_eigenvalues(h4)
        oracle = float(evs[-1] / evs[0])  # SPD: kappa = lambda_max / lambda_min
        assert oracle == pytest.approx(1.5514e4, rel=1e-3)
        assert condition_number(h4).value == pytest.approx(oracle, rel=1e-3)

    def test_hilbert12_edge_of_precision(self):
        kappa = condition_number(hilbert(12)).value
        assert 1e15 <= kappa <= 10**17.5

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError, match="singular-to-working-precision"):
            condition_number(DenseMatrix(np.diag([1.0, 1.0, 0.0])))

    def test_rank_one_raises(self):
        with pytest.raises(SingularMatrixError):
            condition_number(DenseMatrix(np.ones((4, 4))))

    def test_rectangular(self):
        x = matrix1(20, 8, 4.0, 99)
        assert condition_number(x).value == pytest.approx(1e4, rel=1e-4)
        # orientation must not matter
        assert condition_number(transpose(x)).value == pytest.approx(1e4, rel=1e-4)

    def test_subnormal_pivot_stops_in_the_qr(self):
        # A pivot below the smallest normal float underflows its reflector's
        # squared norm, so neither triangular solve meets a zero diagonal.
        with pytest.raises(NonFiniteError):
            inverse_norm(DenseMatrix(np.diag([1.0, 1e-310])))

    def test_inverse_norm_orthogonal(self):
        from saddleqr import random_orthogonal

        q = random_orthogonal(6, 5)
        assert inverse_norm(q).value == pytest.approx(1.0, rel=1e-6)


class TestAgainstLapackSvd:
    def test_example2_row(self):
        # Example 2 reduced (l = 300), seed 3, t = 1: a power iteration on
        # this M stalls for thousands of steps and stops 1.4e-6 off.
        from saddleqr import MACHINE_EPS, metrics
        from saddleqr.bench import BenchConfig, base_blocks
        from saddleqr.saddle import assemble, solve_detailed
        from saddleqr.testgen import scale_problem

        cfg = BenchConfig(example="2", m=200, n=100, seed=3)
        t_index = cfg.t_list.index(1.0)
        a1, b1, c1, provenance = base_blocks(cfg, t_index)
        problem = scale_problem(a1, b1, c1, 1.0, provenance)
        m = assemble(problem.blocks)
        ma = m.array
        sv = np.linalg.svd(ma, compute_uv=False)
        kappa = sv[0] / sv[-1]
        assert spectral_norm(m).value == pytest.approx(sv[0], rel=1e-12)
        # sigma_min of M is itself determined only to about eps * kappa
        # relative (here 3e-8), by any backward-stable method.
        assert condition_number(m).value == pytest.approx(kappa, rel=MACHINE_EPS * kappa)
        assert inverse_norm(m).value == pytest.approx(1.0 / sv[-1], rel=MACHINE_EPS * kappa)
        for method in ("bcgs", "bcgs2", "householder"):
            d = solve_detailed(problem.blocks, problem.f, method)
            qa, ra = d.q.array, d.r.array
            report = metrics(m, d.q, d.r, problem.f, d.solution.z, problem.z_star)
            orth = np.linalg.svd(np.eye(len(qa)) - qa.T @ qa, compute_uv=False)[0]
            dec = np.linalg.svd(ma - qa @ ra, compute_uv=False)[0] / sv[0]
            assert report.orth == pytest.approx(orth / MACHINE_EPS, rel=1e-12)
            assert report.dec == pytest.approx(dec / MACHINE_EPS, rel=1e-12)


class TestJacobiOracle:
    def test_known_2x2(self):
        evs = jacobi_eigenvalues(DenseMatrix([[1.0, 2.0], [2.0, 1.0]]))
        assert evs == pytest.approx([-1.0, 3.0], abs=1e-14)

    def test_singular_values_of_diagonal(self):
        sv = exact_singular_values(DenseMatrix(np.diag([3.0, -4.0])))
        assert sv == pytest.approx([4.0, 3.0], abs=1e-14)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            jacobi_eigenvalues(DenseMatrix.identity(65))

    def test_longdouble_mode(self):
        evs = jacobi_eigenvalues(hilbert(4), dtype=np.longdouble)
        assert evs.dtype == np.longdouble
        ref = jacobi_eigenvalues(hilbert(4))
        assert np.allclose(evs.astype(np.float64), ref, rtol=1e-12)

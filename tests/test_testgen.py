import tracemalloc

import numpy as np
import pytest

from saddleqr import (
    DenseMatrix,
    DimensionError,
    NonFiniteError,
    assemble,
    condition_number,
    mat_vec,
    matrix1,
    matrix2,
    scale_problem,
    validate,
)
from saddleqr.matrix import MACHINE_EPS
from saddleqr.rng import normals_at, standard_normals
from saddleqr.saddle import SaddleBlocks
from saddleqr.testgen import _log_spectrum, hilbert, ones_rank_one, random_orthogonal

from _oracles import (
    exact_singular_values, full_qr_matrix1, jacobi_eigenvalues, two_trig_normals_at,
)


class TestLogspaceDiag:
    """The log-spaced diagonal D of matrix1 and matrix2, ``_log_spectrum``."""

    def test_example_one_parameters(self):
        d = _log_spectrum(10.0, 6)
        assert np.allclose(d, [1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10], rtol=1e-15)
        assert d[0] == 1.0

    def test_zero_exponent_is_identity(self):
        assert np.array_equal(_log_spectrum(0.0, 5), np.ones(5))

    def test_two_points_are_endpoints(self):
        assert np.allclose(_log_spectrum(3.0, 2), [1.0, 1e-3], rtol=1e-15)

    def test_single_point_is_right_endpoint(self):
        assert _log_spectrum(2.0, 1)[0] == pytest.approx(1e-2, rel=1e-15)

    def test_exponent_past_the_float_range_gives_zeros(self):
        # s (n-1) overflows to -inf, and 10^-inf = 0, with no RuntimeWarning.
        assert _log_spectrum(1e308, 3).tolist() == [1.0, 0.0, 0.0]
        assert _log_spectrum(1.7e308, 2).tolist() == [1.0, 0.0]

    def test_domain_checks(self):
        with pytest.raises(DimensionError):
            _log_spectrum(1.0, 0)
        for s in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                _log_spectrum(s, 3)


@pytest.mark.parametrize("make", [
    lambda: random_orthogonal(0, 1), lambda: hilbert(0), lambda: ones_rank_one(0),
    lambda: matrix2(0, 1.0, 1),
], ids=["random_orthogonal", "hilbert", "ones_rank_one", "matrix2"])
def test_size_zero_rejected(make):
    with pytest.raises(DimensionError, match="size must be positive, got 0"):
        make()


@pytest.mark.parametrize("make", [lambda s: matrix1(30, 20, s, 1), lambda s: matrix2(30, s, 1)],
                         ids=["matrix1", "matrix2"])
@pytest.mark.parametrize("s", [-1.0, np.inf, np.nan])
def test_bad_exponent_rejected_before_drawing(monkeypatch, make, s):
    import saddleqr.testgen

    def drawn(*args):
        raise AssertionError("an orthogonal factor was drawn before s was checked")

    monkeypatch.setattr(saddleqr.testgen, "_orthonormal_columns", drawn)
    with pytest.raises(ValueError, match="decade exponent must be finite and nonnegative"):
        make(s)


class TestRandomOrthogonal:
    def test_size_one_normalized(self):
        assert np.array_equal(random_orthogonal(1, 123).array, [[1.0]])

    @pytest.mark.parametrize("seed", range(10))
    def test_orthogonality(self, seed):
        q = random_orthogonal(50, seed).array
        defect = np.eye(50) - q.T @ q
        assert np.linalg.norm(defect, 2) <= 1e2 * MACHINE_EPS * 50

    def test_determinism(self):
        a = random_orthogonal(20, 7).array
        b = random_orthogonal(20, 7).array
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = random_orthogonal(20, 7).array
        b = random_orthogonal(20, 8).array
        assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
def test_seed_outside_64_bits_is_refused(seed):
    # Taken modulo 2^64, -1 would alias 2^64 - 1 and 2^64 would alias 0.
    with pytest.raises(ValueError, match=f"seed must be in \\[0, 2\\^64\\), got {seed}"):
        standard_normals(seed, 4)
    assert standard_normals(2**64 - 1, 4).shape == (4,)


class TestMatrix1:
    def test_zero_exponent_left_orthogonal(self):
        x = matrix1(9, 4, 0.0, 5)
        sv = exact_singular_values(x)
        assert np.allclose(sv, 1.0, rtol=1e-10)

    def test_conditioning_band(self):
        kappa = condition_number(matrix1(12, 6, 10.0, 1))
        assert 10**9.5 <= kappa <= 10**10.5

    def test_singular_values_match_logspace(self):
        x = matrix1(10, 4, 3.0, 42)
        sv = exact_singular_values(x)
        ref = _log_spectrum(3.0, 4)
        assert np.allclose(sv, ref, rtol=1e-8)

    def test_wide_rejected(self):
        with pytest.raises(DimensionError):
            matrix1(3, 5, 1.0, 0)

    def test_size_one_normalized(self):
        for seed in range(5):
            assert np.array_equal(matrix1(1, 1, 0.0, seed).array, [[1.0]])

    def test_thin_draw_is_the_full_draw_sliced(self):
        # matrix1 draws only the m n normals of the columns of P it keeps.
        for m in (1, 2, 3, 7, 21, 64, 200, 401):
            for n in sorted({1, max(1, m // 4), max(1, m // 2), m}):
                for seed in range(3):
                    full = standard_normals(seed, m * m).reshape(m, m)[:, :n]
                    thin = normals_at(seed, m * m, np.arange(m)[:, None] * m + np.arange(n))
                    assert thin.shape == (m, n)
                    assert thin.tobytes() == np.ascontiguousarray(full).tobytes(), (m, n, seed)

    @pytest.mark.parametrize("m, n", [(12, 6), (200, 100), (400, 200), (1000, 500), (3000, 100),
                                      (7, 7), (21, 5)])
    def test_one_trig_call_per_entry_matches_both_trig_bitwise(self, m, n):
        # The P draws of the presets (example 1, reduced and benchmark
        # example 2, examples 2 and 3), plus an odd count and a square.
        idx = np.arange(m)[:, None] * m + np.arange(n)
        for seed in (0, 5):
            got = normals_at(seed, m * m, idx)
            assert got.tobytes() == two_trig_normals_at(seed, m * m, idx).tobytes(), (m, n, seed)

    def test_thin_p_matches_full_qr_oracle(self):
        # matrix1 factors only the n columns of P it keeps; the full m x m
        # QR gives the same columns to rounding.  Worst measured gap on
        # this family over seeds 0..199: 6.4 eps max|X|.
        for m in (1, 2, 3, 8, 21, 64, 200):
            for n in sorted({1, max(1, m // 4), max(1, m // 2), m}):
                for s in (0.0, 10.0):
                    for seed in range(3):
                        ref = full_qr_matrix1(m, n, s, seed)
                        x = matrix1(m, n, s, seed).array
                        assert x.shape == ref.shape
                        gap = np.max(np.abs(x - ref))
                        assert gap <= 8.0 * MACHINE_EPS * np.max(np.abs(ref)), (m, n, s, seed)


class TestMatrix2:
    def test_zero_exponent_near_identity(self):
        x = matrix2(8, 0.0, 3)
        assert np.max(np.abs(x.array - np.eye(8))) <= 1e2 * MACHINE_EPS * 8

    def test_exactly_symmetric(self):
        x = matrix2(15, 4.0, 9)
        assert np.array_equal(x.array, x.array.T)

    def test_spd_certificate(self):
        np.linalg.cholesky(matrix2(20, 6.0, 11).array)  # raises LinAlgError unless SPD

    def test_conditioning_band(self):
        kappa = condition_number(matrix2(50, 10.0, 2))
        assert 10**9.5 <= kappa <= 10**10.5

    def test_validate_accepts_as_a_block(self):
        blocks = SaddleBlocks(
            a=matrix2(6, 12.0, 17),
            b=matrix1(6, 3, 2.0, 18),
            c=matrix2(3, 2.0, 19),
        )
        assert validate(blocks).a_spd


class TestHilbert:
    def test_size_one(self):
        assert np.array_equal(hilbert(1).array, [[1.0]])

    def test_size_three_exact_entries(self):
        ref = np.array(
            [[1.0, 1 / 2, 1 / 3], [1 / 2, 1 / 3, 1 / 4], [1 / 3, 1 / 4, 1 / 5]]
        )
        assert np.array_equal(hilbert(3).array, ref)

    def test_size_twelve_conditioning(self):
        kappa = condition_number(hilbert(12))
        assert 1e15 <= kappa <= 10**17.5


class TestOnesRankOne:
    def test_small_sizes(self):
        assert np.array_equal(ones_rank_one(1).array, [[1.0]])
        assert np.array_equal(ones_rank_one(3).array, np.ones((3, 3)))

    def test_rank_one_spectrum(self):
        evs = jacobi_eigenvalues(ones_rank_one(3))
        assert np.allclose(evs, [0.0, 0.0, 3.0], atol=1e-13)

    def test_positive_semidefinite(self):
        evs = jacobi_eigenvalues(ones_rank_one(5))
        assert evs.min() >= -1e2 * MACHINE_EPS * 5


class TestScaleProblem:
    def base(self):
        return matrix2(4, 2.0, 1), matrix1(4, 2, 2.0, 2), matrix2(2, 2.0, 3)

    def test_unit_scale_is_identity(self):
        a1, b1, c1 = self.base()
        p = scale_problem(a1, b1, c1, 1.0)
        ma = p.blocks.matrix.array
        assert np.array_equal(ma[:4, :4], a1.array)
        assert np.array_equal(ma[:4, 4:], b1.array)
        assert np.array_equal(-ma[4:, 4:], c1.array)
        assert np.array_equal(p.z_star.array, np.ones(6))

    def test_solution_pattern(self):
        a1 = DenseMatrix(np.eye(2))
        b1 = DenseMatrix([[1.0], [0.0]])
        c1 = DenseMatrix([[1.0]])
        p = scale_problem(a1, b1, c1, 10.0)
        assert np.array_equal(p.z_star.array, [10.0, 10.0, 0.1])

    def test_rhs_stored_as_computed(self):
        a1, b1, c1 = self.base()
        p = scale_problem(a1, b1, c1, 0.5)
        recomputed = mat_vec(assemble(p.blocks), p.z_star)
        assert np.array_equal(p.f.array, recomputed.array)

    def test_block_conditioning_invariant_under_scaling(self):
        a1, b1, c1 = self.base()
        k_ref = condition_number(a1)
        for t in (0.01, 100.0):
            p = scale_problem(a1, b1, c1, t)
            a = DenseMatrix(p.blocks.matrix.array[:4, :4])
            assert condition_number(a) == pytest.approx(k_ref, rel=1e-6)

    def test_system_conditioning_moves_with_t(self):
        a1 = matrix2(50, 10.0, 3)
        b1 = matrix1(50, 25, 10.0, 4)
        c1 = matrix2(25, 10.0, 5)
        k_small_t = condition_number(assemble(scale_problem(a1, b1, c1, 0.01).blocks))
        k_unit = condition_number(assemble(scale_problem(a1, b1, c1, 1.0).blocks))
        assert k_small_t >= 1e2 * k_unit

    def test_kept_problem_holds_m_once(self):
        # M, z* and f: the scaled blocks are not kept beside M.
        m, n = 400, 200
        l = m + n
        a1, b1, c1 = matrix2(m, 1.0, 1), matrix1(m, n, 1.0, 2), matrix2(n, 1.0, 3)
        tracemalloc.start()
        try:
            p = scale_problem(a1, b1, c1, 2.0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert p.blocks.l == l
        assert held <= 8 * (l * l + 10 * l)

    def test_zero_scale_rejected(self):
        a1, b1, c1 = self.base()
        with pytest.raises(ValueError):
            scale_problem(a1, b1, c1, 0.0)

    def test_overflowing_rhs_raises(self):
        # B^T x* carries t^2 = 1e310, past the float range.
        a1, b1, c1 = self.base()
        with pytest.raises(NonFiniteError):
            scale_problem(a1, b1, c1, 1e155)

    @pytest.mark.parametrize("t", [1e-310, 1e-320, float("nan")])
    def test_overflowing_blocks_or_solution_raise(self, t):
        # A1 / t and y* = 1 / t overflow for the tiny t; nan fills every block.
        a1, b1, c1 = self.base()
        with pytest.raises(NonFiniteError, match="scaled blocks"):
            scale_problem(a1, b1, c1, t)

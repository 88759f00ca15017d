import tracemalloc

import numpy as np
import pytest

from saddleqr import (
    DenseMatrix,
    DimensionError,
    NonFiniteError,
    RankDeficientError,
    SaddleBlocks,
    Vector,
    ZeroDiagonalError,
    assemble,
    condition_number,
    mat_vec,
    matrix1,
    matrix2,
    solve_detailed,
    validate,
    vector_norm,
)
from saddleqr.matrix import MACHINE_EPS, _is_symmetric
from saddleqr.rng import _uniforms_at, mix64, standard_normals
from saddleqr.testgen import hilbert

from _oracles import cramer_solve_3x3, gauss_solve, loop_cholesky

BLOCKS_3X3 = SaddleBlocks(
    a=DenseMatrix([[2.0, 0.0], [0.0, 2.0]]),
    b=DenseMatrix([[1.0], [0.0]]),
    c=DenseMatrix([[1.0]]),
)


def small_system(seed, m=3, n=2):
    blocks = SaddleBlocks(
        a=matrix2(m, 1.0, seed),
        b=matrix1(m, n, 1.0, seed + 1000),
        c=matrix2(n, 1.0, seed + 2000),
    )
    z_star = Vector(np.linspace(1.0, 2.0, m + n))
    f = mat_vec(assemble(blocks), z_star)
    return blocks, f, z_star


class TestAssemble:
    def test_scalar_blocks(self):
        blocks = SaddleBlocks(
            a=DenseMatrix([[2.0]]), b=DenseMatrix([[1.0]]), c=DenseMatrix([[1.0]])
        )
        assert np.array_equal(assemble(blocks).array, [[2.0, 1.0], [1.0, -1.0]])

    def test_zero_coupling(self):
        blocks = SaddleBlocks(
            a=DenseMatrix(np.eye(2)),
            b=DenseMatrix(np.zeros((2, 1))),
            c=DenseMatrix([[3.0]]),
        )
        assert np.array_equal(assemble(blocks).array, np.diag([1.0, 1.0, -3.0]))

    def test_direct_placement(self):
        m = assemble(BLOCKS_3X3)
        assert np.array_equal(
            m.array, [[2.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, -1.0]]
        )

    def test_assembled_once_and_shared_read_only(self):
        blocks, f, _ = small_system(3)
        m = assemble(blocks)
        assert assemble(blocks) is m
        assert not m.array.flags.writeable
        for method in ("bcgs", "bcgs2", "householder"):
            assert solve_detailed(blocks, f, method).matrix is m

    @pytest.mark.parametrize("a, c, named", [
        (np.ones((2, 3)), np.eye(1), "A must be square"),
        (np.eye(2), np.ones((1, 2)), "C must be square"),
    ])
    def test_non_square_diagonal_block_rejected(self, a, c, named):
        with pytest.raises(DimensionError, match=named):
            SaddleBlocks(a=DenseMatrix(a), b=DenseMatrix(np.ones((2, 1))), c=DenseMatrix(c))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            SaddleBlocks(
                a=DenseMatrix(np.eye(2)),
                b=DenseMatrix(np.zeros((3, 1))),
                c=DenseMatrix([[1.0]]),
            )

    def test_blocks_read_back_bitwise_from_m_read_only(self):
        a = np.array([[2.0, -0.0], [-0.0, 3.0]])
        b = np.array([[1.0, 0.0], [-0.0, 1.0]])
        c = np.array([[0.0, -0.0], [-0.0, 1.0]])  # M holds -C: -0.0 and 0.0 swap there
        blocks = SaddleBlocks(a=DenseMatrix(a), b=DenseMatrix(b), c=DenseMatrix(c))
        assert (blocks.m, blocks.n, blocks.l) == (2, 2, 4)
        ma = blocks.matrix.array
        for got, want in ((ma[:2, :2], a), (ma[:2, 2:], b), (ma[2:, :2], b.T), (ma[2:, 2:], -c)):
            assert got.tobytes() == want.tobytes()  # signed zeros included
        assert not ma.flags.writeable
        with pytest.raises(ValueError):
            ma[0, 0] = 1.0
        # M is the one copy of the blocks: no accessor copies one back out
        assert not any(hasattr(blocks, name) for name in ("a", "b", "c"))


class TestValidate:
    def test_clean_instance_passes(self):
        blocks = SaddleBlocks(
            a=DenseMatrix(np.eye(2)),
            b=DenseMatrix([[1.0], [0.0]]),
            c=DenseMatrix([[0.0]]),
        )
        report = validate(blocks)
        assert report.all_passed and report.a_symmetric
        assert abs(report.c_min_eigenvalue) <= 1e-12

    def test_indefinite_a_fails(self):
        blocks = SaddleBlocks(
            a=DenseMatrix([[1.0, 2.0], [2.0, 1.0]]),
            b=DenseMatrix([[1.0], [0.0]]),
            c=DenseMatrix([[0.0]]),
        )
        report = validate(blocks)
        assert not report.a_spd and report.a_symmetric
        assert report.c_psd and report.b_full_rank

    def test_rank_deficient_b_fails(self):
        blocks = SaddleBlocks(
            a=DenseMatrix(np.eye(2)),
            b=DenseMatrix([[1.0, 1.0], [1.0, 1.0]]),
            c=DenseMatrix(np.zeros((2, 2))),
        )
        report = validate(blocks)
        assert not report.b_full_rank

    def test_b_certified_without_forming_its_q(self, monkeypatch):
        from saddleqr import NonFiniteError, _openblas

        eye = DenseMatrix(np.eye(2))
        full = SaddleBlocks(a=matrix2(6, 2.0, 1), b=matrix1(6, 3, 2.0, 2), c=matrix2(3, 2.0, 3))
        wide = SaddleBlocks(a=eye, b=DenseMatrix(np.ones((2, 3))), c=DenseMatrix(np.zeros((3, 3))))
        deficient = SaddleBlocks(a=eye, b=DenseMatrix(np.ones((2, 2))), c=eye)
        infinite = SaddleBlocks(a=eye, b=DenseMatrix._wrap(np.diag([np.inf, 1.0])), c=eye)

        def no_q(*args):
            raise AssertionError("validate formed B's Q")

        monkeypatch.setattr(_openblas, "dorgqr", no_q)
        assert validate(full).all_passed
        assert not validate(deficient).b_full_rank
        assert not validate(wide).b_full_rank
        with pytest.raises(NonFiniteError):
            validate(infinite)

    def test_negative_c_fails_psd(self):
        blocks = SaddleBlocks(
            a=DenseMatrix(np.eye(2)),
            b=DenseMatrix([[1.0], [0.0]]),
            c=DenseMatrix([[-1.0]]),
        )
        report = validate(blocks)
        assert not report.c_psd
        assert report.c_min_eigenvalue == pytest.approx(-1.0, rel=1e-6)

    def test_asymmetric_blocks_fail(self):
        blocks = SaddleBlocks(
            a=DenseMatrix([[2.0, 1.0], [0.0, 2.0]]),
            b=DenseMatrix([[1.0], [0.0]]),
            c=DenseMatrix([[0.0]]),
        )
        report = validate(blocks)
        assert not report.a_spd and not report.a_symmetric
        assert report.c_psd and report.b_full_rank
        blocks = SaddleBlocks(
            a=DenseMatrix(np.eye(2)),
            b=DenseMatrix(np.eye(2)),
            c=DenseMatrix([[1.0, 0.5], [0.0, 1.0]]),
        )
        report = validate(blocks)
        assert not report.c_psd
        assert report.a_spd and report.b_full_rank

    @pytest.mark.parametrize("a", [np.diag([2.0, 3.0]), np.array([[2.0, 1.0], [0.0, 2.0]])])
    def test_a_symmetry_checked_once(self, monkeypatch, a):
        import saddleqr.saddle

        blocks = SaddleBlocks(a=DenseMatrix(a), b=DenseMatrix([[1.0], [0.0]]), c=DenseMatrix([[1.0]]))
        checks = []
        real = saddleqr.saddle._is_symmetric

        def counting(xa):  # A is read from M, so match it by value
            checks.append(xa.shape == a.shape and np.array_equal(xa, a))
            return real(xa)

        monkeypatch.setattr(saddleqr.saddle, "_is_symmetric", counting)
        validate(blocks)
        assert sum(checks) == 1

    def test_a_verdicts_match_loop_oracle_on_shifted_spd_family(self):
        # S = G G^T / n + I shifted by lambda_min(S) + 0.4 (u - 0.3) (lambda_max - lambda_min),
        # u uniform: about 30% stay SPD, the rest fail at pivots 0 to 34.
        c = DenseMatrix([[1.0]])
        verdicts = set()
        for i in range(400):
            n = 2 + mix64(77, i) % 38
            g = standard_normals(mix64(78, i), n * n).reshape(n, n)
            s = g @ g.T / n + np.eye(n)
            s = 0.5 * (s + s.T)
            lam = np.linalg.eigvalsh(s)
            u = _uniforms_at(mix64(79, i), np.array([1], dtype=np.uint64))[0]
            a = s - (lam[0] + 0.4 * (u - 0.3) * (lam[-1] - lam[0])) * np.eye(n)
            b = DenseMatrix(np.eye(n, 1))  # e1: full rank, so only A's verdict varies
            report = validate(SaddleBlocks(a=DenseMatrix(a), b=b, c=c))
            assert report.a_spd == (loop_cholesky(a)[0] is not None)
            verdicts.add(report.a_spd)
        assert verdicts == {True, False}

    def test_example1_hilbert_a_passes(self):
        blocks = SaddleBlocks(a=hilbert(12), b=DenseMatrix(np.eye(12, 1)), c=DenseMatrix([[1.0]]))
        assert validate(blocks).a_spd
        assert loop_cholesky(hilbert(12).array)[0] is not None

    @pytest.mark.parametrize("skew, verdict", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("order, i, j", [(8, 5, 1), (300, 290, 10)])  # 300: two row blocks
    def test_symmetry_tolerance_edges(self, skew, verdict, order, i, j):
        # One off-diagonal pair apart by `skew` times 10 eps ||X||_F, at two scales;
        # at 1e300, ||X||_F overflows unless X is scaled first.
        x = matrix2(order, 2.0, 4).array
        for scale in (1.0, 1e300):
            y = x * scale
            y[i, j] = y[j, i] + skew * 10.0 * MACHINE_EPS * float(np.linalg.norm(x)) * scale
            assert _is_symmetric(y) is verdict

    def test_symmetry_check_memory_is_a_block_of_rows(self):
        # A 1000 x 1000 corner of M (7.6 MiB): the whole-matrix check peaked
        # at 30.5 MiB, the blockwise one at 2.1 MiB (its 256 x 1000 buffer).
        a = SaddleBlocks(a=matrix2(1000, 2.0, 6), b=matrix1(1000, 2, 1.0, 7),
                         c=matrix2(2, 1.0, 8)).matrix.array[:1000, :1000]
        tracemalloc.start()
        try:
            assert _is_symmetric(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    def test_rank_one_c_is_psd(self):
        from saddleqr.testgen import ones_rank_one

        blocks = SaddleBlocks(
            a=DenseMatrix(np.eye(3)),
            b=matrix1(3, 2, 0.0, 5),
            c=ones_rank_one(2),
        )
        assert validate(blocks).c_psd


class TestSolve:
    @pytest.mark.parametrize("method", ["bcgs", "bcgs2", "householder"])
    def test_constructed_rhs(self, method):
        f = Vector([3.0, 2.0, 0.0])  # M (1,1,1)
        sol = solve_detailed(BLOCKS_3X3, f, method).solution
        kappa = condition_number(assemble(BLOCKS_3X3))
        assert np.max(np.abs(sol.z.array - 1.0)) <= 1e3 * MACHINE_EPS * kappa

    @pytest.mark.parametrize("method", ["bcgs", "bcgs2", "householder"])
    def test_cramer_oracle(self, method):
        f = Vector([1.0, 0.0, 0.0])
        oracle = cramer_solve_3x3(assemble(BLOCKS_3X3).array, f.array)
        assert oracle == pytest.approx([1.0 / 3.0, 0.0, 1.0 / 3.0], abs=1e-15)
        sol = solve_detailed(BLOCKS_3X3, f, method).solution
        kappa = condition_number(assemble(BLOCKS_3X3))
        assert np.max(np.abs(sol.z.array - oracle)) <= 1e3 * MACHINE_EPS * kappa

    def test_solution_names_its_method(self):
        sol = solve_detailed(BLOCKS_3X3, Vector([1.0, 0.0, 0.0]), "bcgs2").solution
        assert sol.method == "bcgs2"

    def test_singular_system_raises(self):
        # A = I2, B = 0, C = 0 makes M = diag(1, 1, 0), exactly singular
        blocks = SaddleBlocks(
            a=DenseMatrix(np.eye(2)),
            b=DenseMatrix(np.zeros((2, 1))),
            c=DenseMatrix([[0.0]]),
        )
        with pytest.raises((RankDeficientError, ZeroDiagonalError)):
            solve_detailed(blocks, Vector([1.0, 1.0, 0.0]), "bcgs2")

    @pytest.mark.parametrize("method", ["bcgs", "bcgs2", "householder"])
    def test_non_finite_solution_raises(self, method):
        # The exact z = (4/3, -2/3, -1/3) 1e308 is representable, but z_0 overflows.
        blocks = SaddleBlocks(
            a=DenseMatrix(np.eye(2)), b=DenseMatrix([[1.0], [1.0]]), c=DenseMatrix([[1.0]])
        )
        with pytest.raises(NonFiniteError, match=f"the {method} solution is not finite"):
            solve_detailed(blocks, Vector([1e308, -1e308, 1e308]), method)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_detailed(BLOCKS_3X3, Vector([1.0, 0.0, 0.0]), "lu")

    def test_rhs_length_checked(self):
        with pytest.raises(DimensionError):
            solve_detailed(BLOCKS_3X3, Vector([1.0, 0.0]), "bcgs2")

    @pytest.mark.parametrize("seed", range(4))
    def test_method_independence(self, seed):
        blocks, f, _ = small_system(seed)
        kappa = condition_number(assemble(blocks))
        z_a = solve_detailed(blocks, f, "bcgs2").solution.z
        z_b = solve_detailed(blocks, f, "householder").solution.z
        gap = vector_norm(z_a - z_b)
        assert gap <= 1e4 * MACHINE_EPS * kappa * vector_norm(z_a)

    @pytest.mark.parametrize("method", ["bcgs2", "householder"])
    def test_forward_error_bound(self, method):
        blocks, f, z_star = small_system(9)
        kappa = condition_number(assemble(blocks))
        z = solve_detailed(blocks, f, method).solution.z
        rel = vector_norm(z - z_star) / vector_norm(z_star)
        assert rel <= 1e3 * MACHINE_EPS * kappa

    def test_matches_elimination_oracle(self):
        blocks, f, _ = small_system(31)
        m = assemble(blocks)
        oracle = gauss_solve(m.array, f.array)
        z = solve_detailed(blocks, f, "bcgs2").solution.z
        kappa = condition_number(m)
        rel = vector_norm(Vector(z.array - oracle)) / vector_norm(z)
        assert rel <= 1e4 * MACHINE_EPS * kappa

    def test_shared_first_pass_left_unchanged(self):
        blocks, f, _ = small_system(4, m=7, n=5)
        first = solve_detailed(blocks, f, "bcgs")

        def held():
            return [a.array.tobytes() for a in (first.q, first.r, first.solution.z)]

        before = held()
        shared = solve_detailed(blocks, f, "bcgs2", first_pass=first)
        assert held() == before
        alone = solve_detailed(blocks, f, "bcgs2")
        for name in ("q", "r"):
            assert getattr(shared, name).array.tobytes() == getattr(alone, name).array.tobytes()
        assert shared.solution.z.array.tobytes() == alone.solution.z.array.tobytes()

    @pytest.mark.parametrize("method", ["bcgs", "bcgs2", "householder"])
    def test_first_pass_must_be_a_bcgs_solve_of_these_blocks(self, method):
        blocks, f, _ = small_system(4, m=7, n=5)
        other, g, _ = small_system(5, m=7, n=5)
        wrong = [solve_detailed(other, g, "bcgs"),  # another system
                 solve_detailed(blocks, f, "bcgs2"), solve_detailed(blocks, f, "householder")]
        for first in wrong:
            with pytest.raises(ValueError, match="first_pass"):
                solve_detailed(blocks, f, method, first_pass=first)

    def test_solve_detailed_exposes_factorization(self):
        detail = solve_detailed(BLOCKS_3X3, Vector([1.0, 0.0, 0.0]), "bcgs2")
        recon = detail.q.array @ detail.r.array
        assert np.allclose(recon, detail.matrix.array, atol=1e-13)

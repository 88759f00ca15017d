import math

import numpy as np
import pytest

from saddleqr import (
    DenseMatrix,
    DimensionError,
    LinAlgError,
    NonConvergedError,
    NonFiniteError,
    SingularMatrixError,
    condition_number,
    matrix1,
    norms,
    spectral_norm,
)
from saddleqr import _openblas
from saddleqr.matrix import MACHINE_EPS
from saddleqr.rng import standard_normals
from saddleqr.testgen import hilbert

from _oracles import exact_singular_values, exact_spectral_norm, jacobi_eigenvalues

TOL = 1e-8


def rand_matrix(rows, cols, seed):
    return DenseMatrix(standard_normals(seed, rows * cols).reshape(rows, cols))


class TestSpectralNorm:
    def test_diagonal(self):
        est = spectral_norm(DenseMatrix(np.diag([1.0, 10.0])))
        assert est == pytest.approx(10.0, rel=TOL)

    def test_golden_ratio(self):
        # eigenvalues of X^T X for X = [[1,1],[0,1]] are (3 +- sqrt 5)/2,
        # so the top singular value is sqrt((3 + sqrt 5)/2) = (1 + sqrt 5)/2
        expected = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)
        assert expected == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)
        est = spectral_norm(DenseMatrix([[1.0, 1.0], [0.0, 1.0]]))
        assert est == pytest.approx(expected, rel=10 * TOL)

    def test_zero_matrix(self):
        est = spectral_norm(DenseMatrix(np.zeros((3, 3))))
        assert est == 0.0

    def test_transpose_symmetry(self):
        for seed in range(4):
            x = rand_matrix(7, 4, seed)
            a = spectral_norm(x)
            b = spectral_norm(DenseMatrix(x.array.T))
            assert a == pytest.approx(b, rel=10 * TOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_against_jacobi_oracle(self, seed):
        x = rand_matrix(9, 6, 30 + seed)
        assert spectral_norm(x) == pytest.approx(
            exact_spectral_norm(x), rel=1e-6
        )

    def test_nonnegative_lower_bound_contract(self):
        est = spectral_norm(rand_matrix(8, 8, 77))
        assert est >= 0.0
        assert est <= exact_spectral_norm(rand_matrix(8, 8, 77)) * (1 + 1e-6)


@pytest.mark.parametrize("x", [[[2.0, 1.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 3.0]]])
def test_norms_return_plain_floats(x):
    # a non-symmetric and a symmetric input, one per LAPACK branch
    for fn in (spectral_norm, condition_number):
        assert type(fn(DenseMatrix(x))) is float


@pytest.mark.parametrize("fn, x, error", [
    (spectral_norm, [[1e308, 1e308], [1e308, 1e308]], NonFiniteError),  # norm 2e308
])
def test_typed_errors(fn, x, error):
    with pytest.raises(error):
        fn(DenseMatrix(x))


@pytest.mark.parametrize("x, routine, drop", [
    ([[2.0, 1.0], [0.0, 1.0]], "svd", False),  # nonsymmetric: the SVD
    ([[2.0, 1.0], [1.0, 3.0]], "eigvalsh", True),  # symmetric, without the bundled OpenBLAS
], ids=["svd", "eigvalsh_no_openblas"])
def test_lapack_failure_is_nonconverged(x, routine, drop, monkeypatch, no_openblas):
    if drop:
        no_openblas()

    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, fails)
    with pytest.raises(NonConvergedError, match=f"LAPACK did not converge: {routine}"):
        condition_number(DenseMatrix(x))


class TestConditionNumber:
    def test_identity(self):
        for size in (1, 3, 7):
            assert condition_number(DenseMatrix(np.eye(size))) == pytest.approx(
                1.0, rel=1e-6
            )

    def test_diagonal(self):
        est = condition_number(DenseMatrix(np.diag([1.0, 1e-3])))
        assert est == pytest.approx(1e3, rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_diagonal_ratio_property(self, seed):
        d = 10.0 ** (standard_normals(seed, 6) * 2.0)
        est = condition_number(DenseMatrix(np.diag(d)))
        assert est == pytest.approx(d.max() / d.min(), rel=1e-6)

    def test_hilbert4_vs_eigen_oracle(self):
        h4 = hilbert(4)
        evs = jacobi_eigenvalues(h4)
        oracle = float(evs[-1] / evs[0])  # SPD: kappa = lambda_max / lambda_min
        assert oracle == pytest.approx(1.5514e4, rel=1e-3)
        assert condition_number(h4) == pytest.approx(oracle, rel=1e-3)

    def test_hilbert12_edge_of_precision(self):
        kappa = condition_number(hilbert(12))
        assert 1e15 <= kappa <= 10**17.5

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError, match="singular-to-working-precision"):
            condition_number(DenseMatrix(np.diag([1.0, 1.0, 0.0])))

    def test_rank_one_raises(self):
        with pytest.raises(SingularMatrixError):
            condition_number(DenseMatrix(np.ones((4, 4))))

    def test_rectangular(self):
        x = matrix1(20, 8, 4.0, 99)
        assert condition_number(x) == pytest.approx(1e4, rel=1e-4)
        # orientation must not matter
        assert condition_number(DenseMatrix(x.array.T)) == pytest.approx(1e4, rel=1e-4)

    def test_subnormal_pivot_is_singular(self):
        # kappa = 1e310: the eigensolve resolves sigma_min = 1e-310, the
        # singular gate rejects it.
        with pytest.raises(SingularMatrixError):
            condition_number(DenseMatrix(np.diag([1.0, 1e-310])))

    @pytest.mark.parametrize("fn", [condition_number])
    def test_singular_gate_is_on_the_sigma_ratio(self, fn):
        # M is singular to working precision when sigma_min <= 1e-3 eps sigma_max.
        eps = np.finfo(np.float64).eps
        kept = 2e-3 * eps
        assert fn(DenseMatrix(np.diag([1.0, kept]))) == pytest.approx(1.0 / kept, rel=1e-15)
        with pytest.raises(SingularMatrixError):
            fn(DenseMatrix(np.diag([1.0, 5e-4 * eps])))


class TestSingularValueBranches:
    @staticmethod
    def _fails(*args, **kwargs):
        raise AssertionError("wrong LAPACK routine")

    def test_symmetric_input_takes_eigvalsh(self, monkeypatch):
        h = hilbert(6)
        ref = np.linalg.svd(h.array, compute_uv=False)
        monkeypatch.setattr(np.linalg, "svd", self._fails)
        kappa = ref[0] / ref[-1]
        assert condition_number(h) == pytest.approx(kappa, rel=np.finfo(float).eps * kappa)
        assert spectral_norm(h) == pytest.approx(ref[0], rel=1e-15)

    def test_one_ulp_asymmetric_input_takes_svd(self, monkeypatch):
        # max|H| = 1, so the scaled matrix is H itself and gesdd of it is
        # reproduced exactly.
        xa = hilbert(6).array.copy()
        xa[0, 1] = np.nextafter(xa[0, 1], 2.0)
        x = DenseMatrix(xa)
        ref = np.linalg.svd(xa, compute_uv=False)
        spectrum = norms._Spectrum
        monkeypatch.setattr(norms, "_Spectrum", self._fails)
        assert condition_number(x) == ref[0] / ref[-1]
        assert norms._extreme_singular_values(xa) == (ref[0], ref[-1])
        # The two-norm of a non-symmetric matrix comes from its Gram matrix.
        monkeypatch.setattr(norms, "_Spectrum", spectrum)
        assert spectral_norm(x) == pytest.approx(ref[0], rel=1e-15)

    def test_symmetric_two_norm_scans_and_solves_once(self, monkeypatch):
        h, calls = hilbert(6), []
        for module, name in ((np, "array_equal"), (norms, "_Spectrum"), (np.linalg, "svd")):
            def spy(*args, real=getattr(module, name), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        spectral_norm(h)
        assert calls == ["array_equal", "_Spectrum"]

    @pytest.mark.skipif(_openblas.library() is None, reason="needs numpy's bundled OpenBLAS")
    def test_norms_take_end_eigenvalues_and_only_sigma_min_takes_all(self, monkeypatch):
        # One reduction each; a norm bisects for its ends (two of a symmetric
        # matrix, the top one of a Gram matrix), and only sigma_min of a
        # symmetric matrix runs dsterf, on a copy of the reduction.
        calls = []
        for name in ("dsytrd", "dstebz", "dsterf"):
            def spy(*args, real=getattr(_openblas, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(_openblas, name, spy)
        h, x = hilbert(6), rand_matrix(7, 5, 3)
        for run, expected in ((lambda: spectral_norm(h), ["dsytrd", "dstebz", "dstebz"]),
                              (lambda: spectral_norm(x), ["dsytrd", "dstebz"]),
                              (lambda: condition_number(h),
                               ["dsytrd", "dstebz", "dstebz", "dsterf"])):
            calls.clear()
            run()
            assert calls == expected


needs_openblas = pytest.mark.skipif(_openblas.library() is None,
                                    reason="needs numpy's bundled OpenBLAS")


class TestEigensolver:
    """``norms._Spectrum``: one dsytrd reduction, ends by dstebz bisection and
    every eigenvalue by dsterf, or numpy's eigvalsh without the bundled library."""

    @staticmethod
    def _symmetric(n):
        x = standard_normals(n, n * n).reshape(n, n)
        return x + x.T

    @pytest.mark.parametrize("drop", [False, True], ids=["dsterf", "no_openblas"])
    def test_bytes_equal_eigvalsh(self, drop, no_openblas):
        if drop:
            no_openblas()
        for n in (1, 2, 17, 64, 150):
            a = self._symmetric(n)
            ref = np.linalg.eigvalsh(a).tobytes()
            for order in "CF":
                every = norms._Spectrum(np.array(a, order=order)).every()
                assert every.tobytes() == ref, (n, order)

    @pytest.mark.parametrize("drop", [False, True], ids=["dsterf", "no_openblas"])
    def test_f_order_reads_its_own_lower_triangle(self, drop, no_openblas):
        # validate's C need not be symmetric: it passes an F-order copy.
        if drop:
            no_openblas()
        x = standard_normals(3, 36).reshape(6, 6)
        ref = np.linalg.eigvalsh(x)
        spectrum = norms._Spectrum(np.array(x, order="F"))
        assert spectrum.every().tobytes() == ref.tobytes()
        low, high = spectrum.ends()
        assert abs(low - ref[0]) <= 8 * MACHINE_EPS * abs(ref).max()
        assert abs(high - ref[-1]) <= 8 * MACHINE_EPS * abs(ref).max()

    @staticmethod
    def _cases():
        """SPD, indefinite and near-singular symmetric matrices, n = 1 to 100."""
        for n in (1, 2, 3, 7, 30, 100):
            x = standard_normals(n + 50, n * n).reshape(n, n)
            u = np.linalg.qr(x)[0]
            s = np.logspace(0.0, -15.0, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
            for kind, y in (("spd", x @ x.T + 1e-3 * np.eye(n)), ("indefinite", x + x.T),
                            ("near_singular", (u * s) @ u.T)):
                yield n, kind, (y + y.T) / 2.0

    @pytest.mark.parametrize("drop", [False, True], ids=["dstebz", "no_openblas"])
    def test_ends_within_a_few_ulps_of_eigvalsh(self, drop, no_openblas):
        # Bisection is accurate to about eps ||T||; eigvalsh's implicit QL
        # ends differ from it by rounding that grows with n (up to 21 ulps
        # of ||T|| seen at n = 100).
        if drop:
            no_openblas()
        for n, kind, y in self._cases():
            ref = np.linalg.eigvalsh(y)
            ulp = MACHINE_EPS * float(np.max(np.abs(ref)))
            low, high = norms._Spectrum(np.array(y)).ends()
            assert abs(low - ref[0]) <= (4 + n) * ulp, (n, kind)
            assert abs(high - ref[-1]) <= (4 + n) * ulp, (n, kind)

    @needs_openblas
    @pytest.mark.parametrize("info, error", [(3, NonConvergedError), (-5, LinAlgError),
                                             (-1010, MemoryError)])
    def test_info_raises(self, monkeypatch, info, error):
        monkeypatch.setattr(_openblas.library(), "scipy_LAPACKE_dstebz64_", lambda *args: info)
        with pytest.raises(error) as caught:
            norms._Spectrum(self._symmetric(4)).ends()
        if info > 0:
            assert str(caught.value).startswith("LAPACK did not converge: dstebz INFO = 3")
        elif error is LinAlgError:
            assert type(caught.value) is LinAlgError and "argument 5" in str(caught.value)

    @needs_openblas
    def test_refuses_what_it_cannot_overwrite_in_place(self):
        a = self._symmetric(4)
        for bad in (a[:, :3].T[:3], a.astype(np.float32), DenseMatrix(a).array):
            before = bad.tobytes()
            with pytest.raises(ValueError):
                norms._Spectrum(bad)
            assert bad.tobytes() == before


def _check_against_gesdd(example, m, n, seed, t, methods=("bcgs", "bcgs2", "householder")):
    """||M||, kappa(M), sigma_min(M) and the orth/dec metrics of one bench row
    against numpy's SVD (LAPACK gesdd)."""
    from saddleqr import metrics
    from saddleqr.matrix import MACHINE_EPS
    from saddleqr.bench import BenchConfig, base_blocks
    from saddleqr.saddle import assemble, solve_detailed
    from saddleqr.testgen import scale_problem

    cfg = BenchConfig(example=example, m=m, n=n, seed=seed)
    a1, b1, c1, provenance = base_blocks(cfg, cfg.t_list.index(t))
    problem = scale_problem(a1, b1, c1, t, provenance)
    m = assemble(problem.blocks)
    ma = m.array
    sv = np.linalg.svd(ma, compute_uv=False)
    kappa = sv[0] / sv[-1]
    assert spectral_norm(m) == pytest.approx(sv[0], rel=1e-12)
    # sigma_min of M is itself determined only to about eps * kappa
    # relative, by any backward-stable method.
    assert condition_number(m) == pytest.approx(kappa, rel=MACHINE_EPS * kappa)
    assert norms._extreme_singular_values(ma)[1] == pytest.approx(sv[-1], rel=MACHINE_EPS * kappa)
    for method in methods:
        d = solve_detailed(problem.blocks, problem.f, method)
        qa, ra = d.q.array, d.r.array
        report = metrics(m, d.q, d.r, problem.f, d.solution.z, problem.z_star)
        orth = np.linalg.svd(np.eye(len(qa)) - qa.T @ qa, compute_uv=False)[0]
        dec = np.linalg.svd(ma - qa @ ra, compute_uv=False)[0] / sv[0]
        assert report.orth == pytest.approx(orth / MACHINE_EPS, rel=1e-12)
        assert report.dec == pytest.approx(dec / MACHINE_EPS, rel=1e-12)


class TestAgainstLapackSvd:
    def test_example2_row(self):
        # Example 2 reduced (l = 300), seed 3, t = 1: a power iteration on
        # this M stalls for thousands of steps and stops 1.4e-6 off.
        _check_against_gesdd("2", 200, 100, 3, 1.0)

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_example1_seed0_rows(self, t):
        # The rows of the example-1 golden table, kappa 1.6e10 to 7.6e17.  At
        # t = 0.01 the householder QR of M is rank deficient (an ERR cell).
        methods = ("bcgs", "bcgs2") if t == 0.01 else ("bcgs", "bcgs2", "householder")
        _check_against_gesdd("1", 12, 6, 0, t, methods)


class TestJacobiOracle:
    def test_known_2x2(self):
        evs = jacobi_eigenvalues(DenseMatrix([[1.0, 2.0], [2.0, 1.0]]))
        assert evs == pytest.approx([-1.0, 3.0], abs=1e-14)

    def test_singular_values_of_diagonal(self):
        sv = exact_singular_values(DenseMatrix(np.diag([3.0, -4.0])))
        assert sv == pytest.approx([4.0, 3.0], abs=1e-14)

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            jacobi_eigenvalues(DenseMatrix(np.eye(65)))

    def test_longdouble_mode(self):
        evs = jacobi_eigenvalues(hilbert(4), dtype=np.longdouble)
        assert evs.dtype == np.longdouble
        ref = jacobi_eigenvalues(hilbert(4))
        assert np.allclose(evs.astype(np.float64), ref, rtol=1e-12)

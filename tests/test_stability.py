import math

import numpy as np
import pytest

from saddleqr import (
    DegenerateSolutionError,
    DenseMatrix,
    HypothesisError,
    MACHINE_EPS,
    Vector,
    backward_certificate,
    lemma1_bounds,
    mat_vec,
    metrics,
    random_orthogonal,
    solve_detailed,
    spectral_norm,
    theorem1_bound,
    vector_norm,
)
from saddleqr.bench import BenchConfig, base_blocks, run_bench
from saddleqr.rng import standard_normals
from saddleqr.testgen import scale_problem


def example_style_run(m, n, t, method, seed=0, example="2"):
    cfg = BenchConfig(example=example, m=m, n=n, t_list=(t,), seed=seed)
    a1, b1, c1, _ = base_blocks(cfg, 0)
    problem = scale_problem(a1, b1, c1, t)
    detail = solve_detailed(problem.blocks, problem.f, method)
    return problem, detail


class TestMetrics:
    def test_exact_identity_case(self):
        eye = DenseMatrix.identity(3)
        ones = Vector([1.0, 1.0, 1.0])
        report = metrics(eye, eye, eye, ones, ones, ones)
        assert (report.orth, report.dec, report.res, report.stab) == (0, 0, 0, 0)
        assert report.kappa == pytest.approx(1.0, rel=1e-6)

    def test_zero_solution_rejected(self):
        eye = DenseMatrix.identity(2)
        ones = Vector([1.0, 1.0])
        zero = Vector([0.0, 0.0])
        with pytest.raises(DegenerateSolutionError, match="degenerate solution"):
            metrics(eye, eye, eye, ones, zero, ones)

    def test_example_one_style_bcgs2_is_stable(self):
        problem, detail = example_style_run(12, 6, 1.0, "bcgs2", example="1")
        m = detail.matrix
        report = metrics(m, detail.q, detail.r, problem.f, detail.solution.z, problem.z_star)
        assert report.res <= 1e2
        assert report.stab <= 10.0

    def test_example_one_style_bcgs_is_unstable(self):
        problem, detail = example_style_run(12, 6, 1.0, "bcgs", example="1")
        m = detail.matrix
        report = metrics(m, detail.q, detail.r, problem.f, detail.solution.z, problem.z_star)
        assert report.res >= 1e3

    def test_precomputed_kappa_reused(self):
        eye = DenseMatrix.identity(2)
        ones = Vector([1.0, 1.0])
        report = metrics(eye, eye, eye, ones, ones, ones, kappa=7.0, norm_m=1.0)
        assert report.kappa == 7.0


class TestLemma1:
    def test_orthogonal_input(self):
        q = random_orthogonal(8, 3)
        b = lemma1_bounds(q)
        assert b.beta <= 1e-12
        assert b.norm_q == pytest.approx(1.0, abs=1e-7)
        assert b.norm_q_inverse == pytest.approx(1.0, abs=1e-7)
        assert b.right_defect <= 1e-12

    def test_diagonal_saturation(self):
        # Qt = diag(1, sqrt(1.19)): beta = 0.19 and ||Qt|| hits sqrt(1 + beta)
        qt = DenseMatrix(np.diag([1.0, math.sqrt(1.19)]))
        b = lemma1_bounds(qt)
        assert b.beta == pytest.approx(0.19, abs=1e-9)
        assert b.norm_q == pytest.approx(math.sqrt(1.19), rel=1e-8)
        assert b.norm_q <= math.sqrt(1.0 + b.beta) + 1e-9
        assert b.norm_q_inverse == pytest.approx(1.0, rel=1e-8)
        assert b.norm_q_inverse <= 1.0 / math.sqrt(1.0 - b.beta)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisError, match="Lemma 1"):
            lemma1_bounds(DenseMatrix(2.0 * np.eye(3)))

    @pytest.mark.parametrize("eta", [1e-8, 1e-4, 1e-2])
    def test_perturbed_orthogonal_sweep(self, eta):
        # slack for beta, ||Qt|| and ||Qt^{-1}|| coming from separate LAPACK
        # computations; the tight extended-precision version lives in the
        # acceptance suite
        slack = 1e-4
        for seed in range(8):
            q = random_orthogonal(6, 500 + seed)
            noise = standard_normals(seed, 36).reshape(6, 6)
            qt = DenseMatrix(q.array + eta * noise)
            b = lemma1_bounds(qt)
            assert b.beta < 1.0
            assert b.norm_q <= math.sqrt(1.0 + b.beta) * (1 + slack)
            assert b.norm_q_inverse <= (1 + slack) / math.sqrt(1.0 - b.beta)
            assert b.right_defect <= b.beta * (1 + slack) + 1e-12


class TestTheorem1Bound:
    def test_all_zero(self):
        assert theorem1_bound(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_closed_form_point(self):
        mu, nu = theorem1_bound(0.1, 0.0, 0.1, 0.05)
        assert mu == pytest.approx(0.21, rel=1e-15)
        assert nu == pytest.approx(0.05, rel=1e-15)

    def test_pure_orthogonality_defect(self):
        mu, nu = theorem1_bound(0.0, 0.2, 0.0, 0.0)
        assert mu == 0.0
        assert nu == pytest.approx(0.2, rel=1e-15)

    def test_delta_not_gamma_drives_nu(self):
        _, nu = theorem1_bound(0.0, 0.0, 0.5, 0.0)
        assert nu == 0.0
        _, nu = theorem1_bound(0.0, 0.0, 0.0, 0.5)
        assert nu == 0.5

    def test_domain_errors(self):
        with pytest.raises(HypothesisError):
            theorem1_bound(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            theorem1_bound(-0.1, 0.0, 0.0, 0.0)

    def test_monotone_in_each_argument(self):
        base = (0.05, 0.3, 0.02, 0.04)
        mu0, nu0 = theorem1_bound(*base)
        for idx in range(4):
            bumped = list(base)
            bumped[idx] += 0.05
            mu1, nu1 = theorem1_bound(*bumped)
            assert mu1 >= mu0 and nu1 >= nu0


class TestBackwardCertificate:
    def test_bcgs2_on_hard_family(self):
        problem, detail = example_style_run(100, 50, 1.0, "bcgs2")
        cert = backward_certificate(
            detail.matrix, detail.q, detail.r, problem.f, detail.solution.z
        )
        assert cert.hypotheses_ok
        assert cert.mu <= 1e4 * MACHINE_EPS
        assert cert.nu <= 1e4 * MACHINE_EPS
        # the certified residual inequality must hold on the actual solve
        norm_m = spectral_norm(detail.matrix).value
        z, f = detail.solution.z, problem.f
        resid = vector_norm(mat_vec(detail.matrix, z) - f)
        slack = 1e2 * MACHINE_EPS * (norm_m * vector_norm(z) + vector_norm(f))
        assert resid <= cert.mu * norm_m * vector_norm(z) + cert.nu * vector_norm(f) + slack

    def test_bcgs_defect_dwarfs_bcgs2(self):
        problem, detail1 = example_style_run(100, 50, 1.0, "bcgs")
        _, detail2 = example_style_run(100, 50, 1.0, "bcgs2")
        cert1 = backward_certificate(
            detail1.matrix, detail1.q, detail1.r, problem.f, detail1.solution.z
        )
        cert2 = backward_certificate(
            detail2.matrix, detail2.q, detail2.r, problem.f, detail2.solution.z
        )
        assert cert1.beta >= 1e3 * cert2.beta

    def test_hypotheses_violated_outcome(self):
        # Q far from orthogonal: beta = 3 >= 1, and alpha kappa >= 1
        eye = DenseMatrix.identity(3)
        q_bad = DenseMatrix(2.0 * np.eye(3))
        ones = Vector([1.0, 1.0, 1.0])
        cert = backward_certificate(eye, q_bad, eye, ones, ones)
        assert not cert.hypotheses_ok
        assert math.isinf(cert.mu) and math.isinf(cert.nu)

    def test_exact_orthogonal_factorization(self):
        q = random_orthogonal(6, 11)
        ones = Vector(np.ones(6))
        cert = backward_certificate(q, q, DenseMatrix.identity(6), ones, ones)
        assert cert.hypotheses_ok
        assert cert.mu <= 20 * MACHINE_EPS * 6
        assert cert.nu <= 20 * MACHINE_EPS * 6


def test_stab_bounded_by_res_on_stable_runs():
    cfg = BenchConfig(example="1", m=12, n=6, seed=0, methods=("bcgs2",))
    for row in run_bench(cfg):
        cells = row.cells["bcgs2"]
        assert cells["stab"] <= 10.0 * cells["res"]

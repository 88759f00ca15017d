import dataclasses

import numpy as np
import pytest

from saddleqr import (
    BlockPartition,
    DenseMatrix,
    DimensionError,
    RankDeficientError,
    bcgs,
    bcgs2,
    matmul,
    thin_householder_qr,
)
from saddleqr.bench import BenchConfig, base_blocks
from saddleqr.blockgs import _reorthogonalize
from saddleqr.matrix import MACHINE_EPS, transpose
from saddleqr.rng import standard_normals
from saddleqr.testgen import logspace_diag, random_orthogonal, scale_problem

from _oracles import exact_spectral_norm


def partition_from_array(a, m):
    return BlockPartition.split(DenseMatrix(a), m)


def conditioned_partition(l, m, s, seed):
    """Square l x l matrix with kappa = 10^s, split after column m."""
    u = random_orthogonal(l, seed)
    v = random_orthogonal(l, seed + 1)
    x = matmul(matmul(u, logspace_diag(float(s), l)), transpose(v))
    return BlockPartition.split(x, m)


class TestBlockPartition:
    def test_split_round_trip(self):
        x = DenseMatrix(standard_normals(0, 25).reshape(5, 5))
        p = BlockPartition.split(x, 2)
        assert np.array_equal(p.full().array, x.array)
        assert p.m1.shape == (5, 2) and p.m2.shape == (5, 3)

    def test_rejects_non_square_partition(self):
        with pytest.raises(DimensionError):
            BlockPartition(
                m1=DenseMatrix(np.ones((4, 2))),
                m2=DenseMatrix(np.ones((4, 3))),
            )

    def test_rejects_row_mismatch(self):
        with pytest.raises(DimensionError):
            BlockPartition(
                m1=DenseMatrix(np.ones((4, 2))),
                m2=DenseMatrix(np.ones((5, 2))),
            )


class TestBcgs:
    def test_identity(self):
        f = bcgs(partition_from_array(np.eye(2), 1))
        assert np.allclose(f.q().array, np.eye(2), atol=5 * MACHINE_EPS)
        assert np.allclose(f.r().array, np.eye(2), atol=5 * MACHINE_EPS)
        assert np.array_equal(f.s.array, [[0.0]])

    def test_hand_example_matches_full_householder(self):
        m = DenseMatrix([[2.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, -1.0]])
        f = bcgs(BlockPartition.split(m, 2))
        norm_m = exact_spectral_norm(m)
        resid = m - matmul(f.q(), f.r())
        assert exact_spectral_norm(resid) <= 1e2 * MACHINE_EPS * norm_m
        r = f.r().array
        assert np.array_equal(np.tril(r, -1), np.zeros_like(r))
        assert np.all(np.diag(r) > 0)
        # positive-diagonal QR is unique, so R must match the unblocked one
        full = thin_householder_qr(m)
        assert np.max(np.abs(r - full.r.array)) <= 1e2 * MACHINE_EPS * norm_m

    def test_orthogonal_second_panel_passthrough(self):
        # M2 orthonormal and orthogonal to range(M1): S ~ 0 and R2 ~ I
        q = random_orthogonal(8, 21)
        r1 = np.triu(standard_normals(22, 9).reshape(3, 3))
        r1[np.diag_indices(3)] = np.abs(r1[np.diag_indices(3)]) + 1.0
        m1 = matmul(q.columns(0, 3), DenseMatrix(r1))
        m2 = q.columns(3, 8)
        f = bcgs(BlockPartition(m1=m1, m2=m2))
        assert np.max(np.abs(f.s.array)) <= 1e2 * MACHINE_EPS
        assert np.max(np.abs(f.r2.array - np.eye(5))) <= 1e2 * MACHINE_EPS

    def test_first_panel_rank_error_annotated(self):
        bad = DenseMatrix([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(RankDeficientError, match="first panel"):
            bcgs(BlockPartition.split(bad, 2))

    def test_second_panel_rank_error_annotated(self):
        # M2 = M1 = e1 cancels exactly in the projection step
        dup = DenseMatrix([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(RankDeficientError, match="second panel"):
            bcgs(BlockPartition.split(dup, 1))


class TestBcgs2:
    def test_identity(self):
        f = bcgs2(partition_from_array(np.eye(2), 1))
        assert np.allclose(f.q().array, np.eye(2), atol=5 * MACHINE_EPS)
        assert np.allclose(f.r().array, np.eye(2), atol=5 * MACHINE_EPS)

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_bcgs_when_well_conditioned(self, seed):
        p = conditioned_partition(10, 6, 2, 60 + seed)  # kappa = 1e2
        norm_m = exact_spectral_norm(p.full())
        r_a = bcgs(p).r().array
        r_b = bcgs2(p).r().array
        assert np.max(np.abs(r_a - r_b)) <= 1e3 * MACHINE_EPS * norm_m

    @pytest.mark.parametrize("s", [1, 6, 12])
    def test_is_bcgs_plus_one_reorthogonalization_pass(self, s):
        p = conditioned_partition(12, 7, s, 40 + s)
        ours, reference = bcgs2(p), _reorthogonalize(bcgs(p))
        for field in dataclasses.fields(ours):
            x, y = getattr(ours, field.name), getattr(reference, field.name)
            assert x.array.tobytes() == y.array.tobytes(), field.name

    def test_reorthogonalization_update_identities(self):
        p = conditioned_partition(9, 5, 6, 77)
        first, f = bcgs(p), bcgs2(p)
        # The pass's intermediates: S2 = Q1^T Q2 and the QR of Q2 - Q1 S2.
        q1, q2, r2 = first.q1.array, first.q2.array, first.r2.array
        s2 = q1.T @ q2
        refine = thin_householder_qr(DenseMatrix(q2 - q1 @ s2))
        assert np.array_equal(first.s.array + s2 @ r2, f.s.array)
        assert np.array_equal(refine.r.array @ r2, f.r2.array)
        assert np.array_equal(refine.q.array, f.q2.array)

    def test_factorization_residual(self):
        for seed in range(3):
            p = conditioned_partition(12, 7, 8, 90 + seed)
            f = bcgs2(p)
            m = p.full()
            resid = m - matmul(f.q(), f.r())
            assert (
                exact_spectral_norm(resid)
                <= 1e3 * MACHINE_EPS * 12 * exact_spectral_norm(m)
            )

    def test_assembled_r_structure(self):
        p = conditioned_partition(11, 4, 5, 33)
        f = bcgs2(p)
        r = f.r().array
        assert np.array_equal(r[4:, :4], np.zeros((7, 4)))  # structurally zero
        assert np.all(np.diag(r) > 0)

    def test_orthogonality_beats_bcgs_on_hard_family(self):
        # matrix2/matrix1 blocks at kappa 1e10, moderate size
        from saddleqr import spectral_norm
        from saddleqr.saddle import partition

        cfg = BenchConfig(example="2", m=100, n=50, t_list=(1.0,), seed=0)
        a1, b1, c1, _ = base_blocks(cfg, 0)
        problem = scale_problem(a1, b1, c1, 1.0)
        p = partition(problem.blocks)
        defect = lambda f: spectral_norm(  # noqa: E731
            DenseMatrix.identity(150) - matmul(transpose(f.q()), f.q())
        )
        orth_1 = defect(bcgs(p)) / MACHINE_EPS
        orth_2 = defect(bcgs2(p)) / MACHINE_EPS
        assert orth_2 <= 1e3
        assert orth_1 >= 10 * orth_2

    def test_bcgs_orthogonality_tracks_second_panel_conditioning(self):
        # the single-pass defect grows with ||M2|| ||R2^{-1}||
        mild = conditioned_partition(10, 5, 1, 11)
        harsh = conditioned_partition(10, 5, 8, 11)
        d_mild = exact_spectral_norm(
            DenseMatrix.identity(10) - matmul(transpose(bcgs(mild).q()), bcgs(mild).q())
        )
        d_harsh = exact_spectral_norm(
            DenseMatrix.identity(10) - matmul(transpose(bcgs(harsh).q()), bcgs(harsh).q())
        )
        assert d_harsh >= 1e2 * d_mild

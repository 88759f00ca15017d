import numpy as np
import pytest

from saddleqr import (
    DenseMatrix,
    DimensionError,
    MACHINE_EPS,
    RankDeficientError,
    exact_singular_values,
    exact_spectral_norm,
    matmul,
    matrix1,
    q_by_column_application,
    qr_residuals,
    random_orthogonal,
    thin_householder_qr,
    transpose,
)
from saddleqr.rng import standard_normals


def rand_matrix(rows, cols, seed):
    return DenseMatrix(standard_normals(seed, rows * cols).reshape(rows, cols))


class TestThinQR:
    def test_already_triangular(self):
        f = thin_householder_qr(DenseMatrix(np.diag([3.0, 4.0])))
        assert np.array_equal(f.q.array, np.eye(2))
        assert np.array_equal(f.r.array, np.diag([3.0, 4.0]))

    def test_single_column(self):
        f = thin_householder_qr(DenseMatrix([[3.0], [4.0]]))
        assert f.q.array[:, 0] == pytest.approx([0.6, 0.8], abs=1e-15)
        assert f.r.array[0, 0] == pytest.approx(5.0, abs=1e-14)

    def test_permutation_forced_by_positive_diagonal(self):
        f = thin_householder_qr(DenseMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(f.q.array, [[0.0, 1.0], [1.0, 0.0]], atol=5 * MACHINE_EPS)
        assert np.allclose(f.r.array, np.eye(2), atol=5 * MACHINE_EPS)

    def test_r_is_upper_triangular_with_positive_diagonal(self):
        f = thin_householder_qr(rand_matrix(9, 5, 3))
        r = f.r.array
        assert np.array_equal(np.tril(r, -1), np.zeros_like(r))  # exact zeros
        assert np.all(np.diag(r) > 0)

    def test_backward_error_contract(self):
        # ||X - Q R|| <= 1e2 eps max(l, k) ||X||, orthogonality likewise
        x = rand_matrix(50, 20, 4)
        f = thin_householder_qr(x)
        orth, dec = qr_residuals(x, f)
        assert orth <= 1e2
        assert dec <= 1e2

    def test_contract_on_ill_conditioned(self):
        x = matrix1(40, 20, 10.0, 17)  # kappa ~ 1e10
        f = thin_householder_qr(x)
        orth, dec = qr_residuals(x, f)
        assert orth <= 1e2 * 40
        assert dec <= 1e2 * 40

    def test_idempotent_on_orthogonal(self):
        q = random_orthogonal(12, 8)
        f = thin_householder_qr(q)
        r_defect = f.r - DenseMatrix.identity(12)
        assert exact_spectral_norm(r_defect) <= 1e2 * MACHINE_EPS * 12

    # Below one panel (12 x 7), then column counts on both sides of the
    # first and second panel boundaries.
    @pytest.mark.parametrize(
        "rows, cols, seed",
        [(12, 7, 40), (12, 7, 41), (12, 7, 42), (40, 31, 43), (40, 32, 44), (45, 33, 45),
         (80, 65, 46)],
        ids=["0", "1", "2", "31cols", "32cols", "33cols", "65cols"],
    )
    def test_uniqueness_two_code_paths(self, rows, cols, seed):
        x = rand_matrix(rows, cols, seed)
        q_main = thin_householder_qr(x).q.array
        q_alt = q_by_column_application(x).array
        # The Jacobi oracle takes at most 64 columns; past that, LAPACK's SVD.
        norm_x = exact_spectral_norm(x) if cols <= 64 else np.linalg.norm(x.array, 2)
        bound = 1e2 * MACHINE_EPS * norm_x
        assert np.max(np.abs(q_main - q_alt)) <= bound

    def test_wide_input_rejected(self):
        with pytest.raises(DimensionError):
            thin_householder_qr(rand_matrix(3, 5, 1))

    def test_duplicate_columns_detected(self):
        with pytest.raises(RankDeficientError, match="column 1") as exc:
            thin_householder_qr(DenseMatrix([[1.0, 1.0], [1.0, 1.0]]))
        assert exc.value.column == 1

    def test_duplicate_column_in_later_panel_detected(self):
        a = rand_matrix(80, 50, 9).array.copy()
        a[:, 40] = a[:, 3]
        with pytest.raises(RankDeficientError, match="column 40") as exc:
            thin_householder_qr(DenseMatrix(a))
        assert exc.value.column == 40

    def test_zero_column_detected(self):
        with pytest.raises(RankDeficientError, match="column 2"):
            thin_householder_qr(DenseMatrix(np.diag([1.0, 2.0, 0.0])))

    def test_rank_tol_zero_allows_near_singular(self):
        x = matrix1(8, 4, 14.0, 3)  # kappa ~ 1e14
        f = thin_householder_qr(x, rank_tol=0.0)
        assert np.all(np.diag(f.r.array) > 0)


class TestQrResiduals:
    def test_exact_factorization_of_identity(self):
        f = thin_householder_qr(DenseMatrix.identity(3))
        orth, dec = qr_residuals(DenseMatrix.identity(3), f)
        assert orth == 0.0
        assert dec == 0.0

    def test_planted_orthogonality_defect(self):
        # Q scaled by (1 + 1e-8) in one column: I - Q^T Q has norm ~ 2e-8
        from saddleqr import ThinQR

        x = rand_matrix(10, 4, 5)
        f = thin_householder_qr(x)
        scale = np.ones(4)
        scale[0] = 1.0 + 1e-8
        q_bad = DenseMatrix(f.q.array * scale[None, :])
        orth, _ = qr_residuals(x, ThinQR(q=q_bad, r=f.r))
        expected = 2e-8 / MACHINE_EPS
        assert expected / 2 <= orth <= expected * 2

    def test_shape_mismatch(self):
        f = thin_householder_qr(rand_matrix(5, 3, 6))
        with pytest.raises(DimensionError):
            qr_residuals(rand_matrix(5, 4, 7), f)


def test_orthogonality_scales_benignly():
    # defect of the accumulated Q stays tiny across sizes
    for rows, cols, seed in ((30, 30, 1), (60, 25, 2), (80, 40, 3)):
        x = rand_matrix(rows, cols, 100 + seed)
        f = thin_householder_qr(x)
        gram_defect = DenseMatrix.identity(cols) - matmul(transpose(f.q), f.q)
        assert exact_spectral_norm(gram_defect) <= 50 * MACHINE_EPS * max(rows, cols)

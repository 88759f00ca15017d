import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saddleqr

from saddleqr import (
    DenseMatrix,
    DimensionError,
    NonFiniteError,
    RankDeficientError,
    condition_number,
    matmul,
    matrix1,
    qr_residuals,
    thin_householder_qr,
)
from saddleqr.householder import _openblas_threads, default_rank_tol
from saddleqr.matrix import MACHINE_EPS
from saddleqr.rng import standard_normals
from saddleqr.testgen import random_orthogonal

from _oracles import exact_spectral_norm, q_by_column_application


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

    def test_qr_contract_is_scale_invariant(self):
        # Reflectors of a tiny or huge (but finite) input stay in range.
        g = rand_matrix(50, 20, 4).array
        for scale in (1e-300, 1e-170, 1e200, 1e300):
            x = DenseMatrix(scale * g)
            orth, dec = qr_residuals(x, thin_householder_qr(x))
            assert orth <= 1e2
            assert dec <= 1e2
        assert condition_number(DenseMatrix(1e-170 * np.eye(4))) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        a = rand_matrix(6, 3, 8).array.copy()
        a[4, 1] = bad
        with pytest.raises(NonFiniteError):
            thin_householder_qr(DenseMatrix._wrap(a))

    def test_idempotent_on_orthogonal(self):
        q = random_orthogonal(12, 8)
        f = thin_householder_qr(q)
        r_defect = f.r - DenseMatrix(np.eye(12))
        assert exact_spectral_norm(r_defect) <= 1e2 * MACHINE_EPS * 12

    # Column counts on both sides of multiples of 32, the dgeqrf/dorgqr
    # block size of reference LAPACK, and past its crossover to blocked
    # code at 128 columns.
    @pytest.mark.parametrize(
        "rows, cols, seed",
        [(12, 7, 40), (12, 7, 41), (12, 7, 42), (40, 31, 43), (40, 32, 44), (45, 33, 45),
         (80, 65, 46), (160, 130, 47)],
        ids=["0", "1", "2", "31cols", "32cols", "33cols", "65cols", "130cols"],
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

    def test_first_of_two_dependent_columns_named(self):
        a = rand_matrix(80, 50, 10).array.copy()
        a[:, 20] = a[:, 2]
        a[:, 45] = a[:, 7]
        with pytest.raises(RankDeficientError) as exc:
            thin_householder_qr(DenseMatrix(a))
        assert exc.value.column == 20

    def test_zero_column_detected(self):
        with pytest.raises(RankDeficientError, match="column 2"):
            thin_householder_qr(DenseMatrix(np.diag([1.0, 2.0, 0.0])))

    def test_default_rank_tol_is_eps_sqrt_rows_max_column_norm(self):
        a = rand_matrix(30, 6, 11).array.copy()
        a[:, 4] *= 10.0  # column 4 has the largest norm
        for scale in (1e-300, 1.0, 1e300):
            expected = MACHINE_EPS * np.sqrt(30) * scale * np.linalg.norm(a[:, 4])
            got = default_rank_tol(scale * a)
            assert got == pytest.approx(expected, rel=1e-14)
        assert default_rank_tol(np.zeros((3, 2))) == 0.0

    def test_default_rank_tol_allows_near_singular(self):
        x = matrix1(8, 4, 14.0, 3)  # kappa ~ 1e14, smallest R_jj ~ 4e-14
        f = thin_householder_qr(x)
        assert np.all(np.diag(f.r.array) > 10 * default_rank_tol(x.array))


class TestQrResiduals:
    def test_exact_factorization_of_identity(self):
        f = thin_householder_qr(DenseMatrix(np.eye(3)))
        orth, dec = qr_residuals(DenseMatrix(np.eye(3)), f)
        assert orth == 0.0
        assert dec == 0.0

    def test_planted_orthogonality_defect(self):
        # Q scaled by (1 + 1e-8) in one column: I - Q^T Q has norm ~ 2e-8
        from saddleqr.householder import ThinQR

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


NO_OPENBLAS = not glob.glob(
    os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*")
)
needs_openblas = pytest.mark.skipif(
    NO_OPENBLAS, reason="numpy bundles no OpenBLAS, so there is no thread count to pin"
)

NARROW_QR_DIGEST = """
import hashlib
from saddleqr.householder import thin_householder_qr
from saddleqr.matrix import DenseMatrix
from saddleqr.rng import standard_normals
f = thin_householder_qr(DenseMatrix(standard_normals(600, 600 * 200).reshape(600, 200)))
print(hashlib.sha256(f.q.array.tobytes() + f.r.array.tobytes()).hexdigest())
"""


@needs_openblas
class TestNarrowPanelThreads:
    """A panel with 2 k <= l factors on one OpenBLAS thread; others keep
    the count they were called with."""

    @pytest.fixture
    def two_threads(self):
        get, set_ = _openblas_threads()
        before = get()
        set_(2)
        yield get
        set_(before)

    @staticmethod
    def _spy_qr(monkeypatch, get, raises=False):
        seen, real = [], np.linalg.qr

        def spy(*args, **kwargs):
            seen.append(get())
            if raises:
                raise RuntimeError("qr failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        return seen

    def test_narrow_panel_pins_and_restores(self, two_threads, monkeypatch):
        seen = self._spy_qr(monkeypatch, two_threads)
        thin_householder_qr(rand_matrix(60, 30, 1))
        assert seen == [1] and two_threads() == 2

    def test_raise_inside_pin_restores(self, two_threads, monkeypatch):
        seen = self._spy_qr(monkeypatch, two_threads, raises=True)
        with pytest.raises(RuntimeError):
            thin_householder_qr(rand_matrix(60, 30, 1))
        assert seen == [1] and two_threads() == 2

    def test_wider_panel_keeps_thread_count(self, two_threads, monkeypatch):
        seen = self._spy_qr(monkeypatch, two_threads)
        thin_householder_qr(rand_matrix(60, 31, 1))
        thin_householder_qr(rand_matrix(30, 30, 1))
        assert seen == [2, 2] and two_threads() == 2

    def test_narrow_bytes_do_not_depend_on_thread_count(self):
        src = Path(saddleqr.__file__).resolve().parent.parent
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", NARROW_QR_DIGEST], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


def test_orthogonality_scales_benignly():
    # defect of the accumulated Q stays tiny across sizes
    for rows, cols, seed in ((30, 30, 1), (60, 25, 2), (80, 40, 3)):
        x = rand_matrix(rows, cols, 100 + seed)
        f = thin_householder_qr(x)
        gram_defect = DenseMatrix(np.eye(cols)) - matmul(DenseMatrix(f.q.array.T), f.q)
        assert exact_spectral_norm(gram_defect) <= 50 * MACHINE_EPS * max(rows, cols)

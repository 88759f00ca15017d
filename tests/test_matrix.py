import numpy as np
import pytest

from saddleqr import (
    DenseMatrix,
    DimensionError,
    Vector,
    mat_vec,
    matmul,
    vector_norm,
)
from saddleqr.matrix import MACHINE_EPS
from saddleqr.rng import standard_normals

from _oracles import triple_loop_matmul


def rand_matrix(rows, cols, seed):
    return DenseMatrix(standard_normals(seed, rows * cols).reshape(rows, cols))


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DenseMatrix([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Vector([float("inf")])

    def test_rejects_bad_rank(self):
        with pytest.raises(DimensionError):
            DenseMatrix([1.0, 2.0])
        with pytest.raises(DimensionError):
            Vector([[1.0], [2.0]])

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            DenseMatrix(np.zeros((0, 3)))

    def test_immutable(self):
        m = DenseMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_data_is_row_major_float64(self):
        m = DenseMatrix([[1, 2, 3], [4, 5, 6]])
        assert m.array.dtype == np.float64
        assert m.array.flags["C_CONTIGUOUS"]
        assert m.shape == (2, 3)


class TestWrap:
    """``_wrap`` keeps a computed C- or F-contiguous array in its layout and makes it
    read-only; any other array is copied row-major.  No caller's values are written."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows, cols", [(1, 1), (64, 64), (40, 30)])
    def test_contiguous_array_is_kept_in_its_layout(self, rows, cols, order):
        a = np.array(rand_matrix(rows, cols, rows + cols).array, order=order)
        wrapped = DenseMatrix._wrap(a).array
        assert wrapped.flags[f"{order}_CONTIGUOUS"] and not wrapped.flags.writeable
        assert np.shares_memory(wrapped, a)

    @pytest.mark.parametrize("l", [1, 63, 64, 65, 130])
    def test_owned_f_square_still_reads_a(self, l):
        # Kept as it is, so the caller's array reads A (a transpose in its buffer left A^T).
        expected = rand_matrix(l, l, l).array
        a = np.asfortranarray(expected)
        wrapped = DenseMatrix._wrap(a).array
        assert wrapped.flags.f_contiguous and not wrapped.flags.writeable
        assert np.shares_memory(wrapped, a) and np.array_equal(a, expected)

    @pytest.mark.parametrize("make", [
        lambda big: big[:, 5:45],  # a square F-contiguous view of a larger array
        lambda big: big[:, :30],  # not square
    ], ids=["square_view", "non_square"])
    def test_contiguous_view_leaves_its_base_untouched(self, make):
        big = np.asfortranarray(rand_matrix(40, 50, 3).array)
        before = big.tobytes(order="A")
        a = make(big)
        wrapped = DenseMatrix._wrap(a).array
        assert np.array_equal(wrapped, a) and not wrapped.flags.writeable
        assert big.flags.writeable and big.tobytes(order="A") == before

    def test_non_contiguous_view_is_copied_row_major(self):
        big = np.asfortranarray(rand_matrix(40, 50, 4).array)
        before = big.tobytes(order="A")
        a = big[::2, 5:45]
        wrapped = DenseMatrix._wrap(a).array
        assert wrapped.flags.c_contiguous and not wrapped.flags.writeable
        assert np.array_equal(wrapped, a) and not np.shares_memory(wrapped, big)
        assert big.flags.writeable and big.tobytes(order="A") == before


class TestMatmul:
    def test_identity(self):
        x = rand_matrix(2, 2, 1)
        assert np.array_equal(matmul(DenseMatrix(np.eye(2)), x).array, x.array)

    def test_hand_example(self):
        a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
        b = DenseMatrix([[1.0], [1.0]])
        assert np.array_equal(matmul(a, b).array, [[3.0], [7.0]])

    def test_bitwise_matches_triple_loop(self):
        a = rand_matrix(5, 4, 2)
        b = rand_matrix(4, 3, 3)
        ours = matmul(a, b).array
        ref = triple_loop_matmul(a.array, b.array)
        assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_various_shapes(self, seed):
        rows = 1 + seed
        inner = 2 + 3 * seed
        cols = 7 - seed
        a = rand_matrix(rows, inner, 10 + seed)
        b = rand_matrix(inner, cols, 20 + seed)
        assert np.array_equal(matmul(a, b).array, triple_loop_matmul(a.array, b.array))

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match="2x3.*4x2"):
            matmul(rand_matrix(2, 3, 4), rand_matrix(4, 2, 5))
        with pytest.raises(DimensionError, match="2x3 by vector of length 4"):
            mat_vec(rand_matrix(2, 3, 4), Vector(np.ones(4)))

    def test_mat_vec_matches_matmul_bitwise(self):
        # The last case sums -0.0 + -0.0: the triple loop starts from +0.0,
        # so the entry is +0.0, not the -0.0 of a sum started from its first term.
        cases = [
            (rand_matrix(6, 5, 6), Vector(standard_normals(7, 5))),
            (DenseMatrix([[1.0, 1.0]]), Vector([-0.0, -0.0])),
        ]
        for a, v in cases:
            as_col = DenseMatrix(v.array.reshape(-1, 1))
            ref = triple_loop_matmul(a.array, as_col.array)[:, 0]
            assert mat_vec(a, v).array.tobytes() == ref.tobytes()
            assert mat_vec(a, v).array.tobytes() == matmul(a, as_col).array[:, 0].tobytes()

    def test_transpose_product_identity(self):
        # (A B)^T == B^T A^T within 10 eps ||A|| ||B|| entrywise
        a = rand_matrix(4, 6, 8)
        b = rand_matrix(6, 3, 9)
        left = matmul(a, b).array.T
        right = matmul(DenseMatrix(b.array.T), DenseMatrix(a.array.T)).array
        bound = 10 * MACHINE_EPS * np.linalg.norm(a.array, 2) * np.linalg.norm(b.array, 2)
        assert np.max(np.abs(left - right)) <= bound


class TestVectorOps:
    def test_norm_matches_reference(self):
        v = Vector(standard_normals(12, 9))
        assert vector_norm(v) == pytest.approx(float(np.linalg.norm(v.array)), rel=1e-14)

    def test_norm_overflow_safe(self):
        v = Vector([1e300, 1e300])
        assert vector_norm(v) == pytest.approx(1e300 * np.sqrt(2.0), rel=1e-15)

    def test_arithmetic(self):
        v = Vector([1.0, 2.0])
        w = Vector([3.0, 5.0])
        assert np.array_equal((w - v).array, [2.0, 3.0])
        with pytest.raises(DimensionError):
            v - Vector([1.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"2x3.*3x2"):
            rand_matrix(2, 3, 1) - rand_matrix(3, 2, 2)
        with pytest.raises(DimensionError, match=r"len=2.*len=1"):
            Vector([1.0, 2.0]) - Vector([1.0])


import saddleqr

# Test oracles that live in tests/_oracles.py, not in the shipped package.
ORACLES = ("jacobi_eigenvalues", "exact_singular_values", "exact_spectral_norm",
           "q_by_column_application")

# The entry points the README documents; everything else is imported from
# its module (saddleqr.testgen, saddleqr.mmio, ...).
PUBLIC = [
    "BlockPartition", "DegenerateSolutionError", "DenseMatrix", "DimensionError",
    "HypothesisError", "LinAlgError", "NonConvergedError", "NonFiniteError",
    "RankDeficientError", "SaddleBlocks", "SingularMatrixError", "Vector",
    "ZeroDiagonalError", "assemble", "backward_certificate", "bcgs", "bcgs2",
    "condition_number", "inverse_norm", "lemma1_bounds", "mat_vec", "matmul",
    "matrix1", "matrix2", "metrics", "qr_residuals", "scale_problem",
    "solve_detailed", "spectral_norm", "thin_householder_qr", "validate", "vector_norm",
]


def test_public_names_resolve():
    missing = [name for name in saddleqr.__all__ if not hasattr(saddleqr, name)]
    assert missing == []


def test_all_is_the_documented_entry_points_sorted():
    assert saddleqr.__all__ == sorted(PUBLIC)
    assert len(PUBLIC) == 32


def test_error_family_is_public():
    errors = [getattr(saddleqr, name) for name in PUBLIC if name.endswith("Error")]
    assert len(errors) == 9
    assert all(issubclass(cls, saddleqr.LinAlgError) for cls in errors)


def test_test_oracles_not_exported():
    assert not set(ORACLES) & (set(saddleqr.__all__) | set(dir(saddleqr)))

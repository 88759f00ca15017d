import saddleqr

# Test oracles that live in tests/_oracles.py, not in the shipped package.
ORACLES = ("jacobi_eigenvalues", "exact_singular_values", "exact_spectral_norm",
           "q_by_column_application")


def test_public_names_resolve():
    missing = [name for name in saddleqr.__all__ if not hasattr(saddleqr, name)]
    assert missing == []


def test_test_oracles_not_exported():
    assert not set(ORACLES) & (set(saddleqr.__all__) | set(dir(saddleqr)))

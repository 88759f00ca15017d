import pytest

from saddleqr import householder


@pytest.fixture
def no_openblas(monkeypatch):
    """Run the rest of a test as on a numpy build with no bundled OpenBLAS:
    the one lapack_lite path for the QR, with no thread count to pin, and the
    column sweep for back-substitution."""
    return lambda: monkeypatch.setattr(householder, "_openblas", lambda: None)

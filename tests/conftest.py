import numpy as np
import pytest

from saddleqr import _openblas


@pytest.fixture
def no_openblas(monkeypatch):
    """Run the rest of a test as on a numpy build with no bundled OpenBLAS
    (README's "Without the bundled OpenBLAS"): no thread count to pin, the
    QR bindings of ``_openblas`` through ``lapack_lite``,
    ``numpy.linalg.eigvalsh`` for the eigenvalues, and the column sweep for
    back-substitution."""
    return lambda: monkeypatch.setattr(_openblas, "library", lambda: None)


@pytest.fixture
def eigen_fails(monkeypatch):
    """Make every symmetric eigenvalue computation fail to converge as LAPACK
    reports it: dstebz returns INFO = 1, or, without the bundled OpenBLAS,
    ``numpy.linalg.eigvalsh`` raises."""
    lib = _openblas.library()
    if lib is None:
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
    else:
        monkeypatch.setattr(lib, "scipy_LAPACKE_dstebz64_", lambda *args: 1)

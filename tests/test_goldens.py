"""Golden bench tables: the sha256 of four ``saddleqr bench`` CSVs.

The internal products go through LAPACK and BLAS, whose rounding depends on
the numpy build, the OpenBLAS kernel chosen at run time and the thread
count.  So the digests are pinned at one BLAS thread, and the test runs
only on the build they were recorded with (numpy 2.4.6, whose bundled
OpenBLAS selects its SkylakeX kernels on the recording host); elsewhere it
skips and says why.
"""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saddleqr
from saddleqr.householder import _openblas

NUMPY_VERSION = "2.4.6"
OPENBLAS_CONFIG = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"
METHODS = ["--methods", "bcgs,bcgs2,householder"]

# (bench arguments, exit code, sha256 of the CSV)
GOLDENS = {
    "example1": (
        ["--example", "1"], 1,
        "1a34ef8f70735c37b321d505f7368ce64f81f37e2fc257586726e5c8ce821ef0",
    ),
    "example2_reduced": (
        ["--example", "2", "--m", "200", "--n", "100"], 0,
        "3b1db48751abae67eb4c550448417baf70ee8514b1badafb33eaa0d8ce5f37d8",
    ),
    "example1_huge_t": (
        ["--example", "1", "--t-list", "1e150,1e155,1e160"], 1,
        "b49878a25cd98befebcbc9ac22ca3f1ff2d9b4233973f5c93b09942dca14e0a5",
    ),
    "example1_tiny_t": (
        ["--example", "1", "--t-list", "1e-160"], 1,
        "99cdb6e55bd4d3ee5c79887b95c7cdec28416698bc560f28fa764b9f72a8884e",
    ),
}


def _openblas_config() -> str | None:
    """The run-time configuration string of numpy's bundled OpenBLAS, or
    None when numpy bundles none."""
    get_config = getattr(_openblas(), "scipy_openblas_get_config64_", None)
    if get_config is None:
        return None
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return get_config().decode()


def _skip_reason() -> str | None:
    if np.__version__ != NUMPY_VERSION:
        return f"goldens recorded with numpy {NUMPY_VERSION}, running {np.__version__}"
    config = _openblas_config()
    if config != OPENBLAS_CONFIG:
        return f"goldens recorded with {OPENBLAS_CONFIG!r}, running {config!r}"
    return None


SKIP_REASON = _skip_reason()


@pytest.mark.skipif(SKIP_REASON is not None, reason=str(SKIP_REASON))
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_csv_digest(name, tmp_path):
    args, code, digest = GOLDENS[name]
    src = Path(saddleqr.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    out = tmp_path / f"{name}.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "saddleqr.cli", "bench", *args, *METHODS, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
from saddleqr import _openblas

NUMPY_VERSION = "2.4.6"
OPENBLAS_CONFIG = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"
METHODS = ["--methods", "bcgs,bcgs2,householder"]

# (bench arguments, exit code, sha256 of the CSV)
GOLDENS = {
    "example1": (
        ["--example", "1"], 1,
        "ffb3f514a0a7446e4208f125562483a1dd211305cb37e25a2dff8c94f698e0e0",
    ),
    "example2_reduced": (
        ["--example", "2", "--m", "200", "--n", "100"], 0,
        "a22c739815968781ab50ee6932949403f25da6194837e0cc982f5e78c53bf63b",
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
    get_config = getattr(_openblas.library(), "scipy_openblas_get_config64_", None)
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


def _bench_digest(name, tmp_path, threads):
    """sha256 of golden ``name``'s CSV, with OPENBLAS_NUM_THREADS set to
    ``threads`` or, for None, unset."""
    args, code, _ = GOLDENS[name]
    src = Path(saddleqr.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    out = tmp_path / f"{name}.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "saddleqr.cli", "bench", *args, *METHODS, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.skipif(SKIP_REASON is not None, reason=str(SKIP_REASON))
@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_csv_digest(name, tmp_path):
    assert _bench_digest(name, tmp_path, "1") == GOLDENS[name][2]


@pytest.mark.skipif(SKIP_REASON is not None, reason=str(SKIP_REASON))
def test_pooled_table_has_the_one_thread_bytes_at_the_default_count(tmp_path):
    # l = 300 is a pooled table: it runs on one OpenBLAS thread whatever the
    # variable says, so the one-thread golden holds with it unset.
    assert _bench_digest("example2_reduced", tmp_path, None) == GOLDENS["example2_reduced"][2]

"""Smoke runs of the measurement scripts, in process and at toy sizes.

The scripts reach into private names (``householder._qr_in_place``,
``blockgs._reorthogonalize``, ``bench._POOL_MIN_ORDER``, ...), so a rename
fails here instead of at the next measurement.
"""

import importlib.util
from pathlib import Path

import pytest

from saddleqr import _openblas, bench

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _threads():
    lib = _openblas.library()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


needs_openblas = pytest.mark.skipif(
    _openblas.library() is None, reason="thread_table exits 2 without the bundled OpenBLAS"
)


@pytest.mark.parametrize("script, argv", [
    ("solve_stages", ["--calls", "1", "30"]),
    pytest.param("thread_table", ["--calls", "1", "30x20"], marks=needs_openblas),
    pytest.param("thread_table", ["--rows", "--calls", "1", "30"], marks=needs_openblas),
], ids=["solve_stages", "thread_table", "thread_table-rows"])
def test_script_prints_a_table_and_restores_what_it_sets(script, argv, capsys):
    pool_min_order, threads = bench._POOL_MIN_ORDER, _threads()
    assert _load(script).main(argv) == 0
    assert any(line.startswith("| ") for line in capsys.readouterr().out.splitlines())
    assert (bench._POOL_MIN_ORDER, _threads()) == (pool_min_order, threads)

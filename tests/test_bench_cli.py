import ctypes
import os
import re
import subprocess
import sys
import threading
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import saddleqr
from saddleqr import DenseMatrix, NonConvergedError, Vector, _openblas, cli
from saddleqr.mmio import read_matrix, read_vector, write_matrix, write_vector
from saddleqr.testgen import GENERATOR_KINDS, hilbert, matrix1, matrix2, ones_rank_one
from saddleqr.bench import (
    KAPPA_FLAG_LIMIT,
    BenchConfig,
    BenchRow,
    _cell_seeds,
    base_blocks,
    read_bench_csv,
    render_csv,
    render_markdown,
    run_bench,
)
from saddleqr.cli import main
from saddleqr.saddle import SaddleBlocks, assemble
from saddleqr.testgen import scale_problem

SMALL = dict(example="1", m=12, n=6, t_list=(1.0, 10.0), methods=("bcgs", "bcgs2"))


class TestBenchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(example="9", m=4, n=2)
        with pytest.raises(ValueError):
            BenchConfig(example="1", m=2, n=4)
        with pytest.raises(ValueError):
            BenchConfig(example="1", m=4, n=2, t_list=())
        with pytest.raises(ValueError):
            BenchConfig(example="1", m=4, n=2, t_list=(0.0,))
        with pytest.raises(ValueError):
            BenchConfig(example="1", m=4, n=2, methods=())
        with pytest.raises(ValueError):
            BenchConfig(example="1", m=4, n=2, methods=("qr",))
        with pytest.raises(ValueError):
            BenchConfig(example="1", m=4, n=2, fmt="html")
        with pytest.raises(ValueError, match="example 'custom' requires --m and --n"):
            BenchConfig(example="custom", m=4)

    @pytest.mark.parametrize("given, m, n", [
        ({}, 12, 6),
        ({"example": "2"}, 1000, 500),
        ({"example": "3"}, 3000, 100),
        ({"example": "2", "n": 100}, 1000, 100),
        ({"example": "custom", "m": 7, "n": 3}, 7, 3),
    ], ids=["default", "example2", "example3", "n_given", "custom"])
    def test_sizes_default_to_the_example_paper_sizes(self, given, m, n):
        cfg = BenchConfig(**given)
        assert (cfg.example, cfg.m, cfg.n) == (given.get("example", "1"), m, n)

    def test_method_order_canonical(self):
        cfg = BenchConfig(example="1", m=4, n=2, methods=("householder", "bcgs"))
        assert cfg.ordered_methods == ("bcgs", "householder")


class TestRunBench:
    def test_rows_complete(self):
        cfg = BenchConfig(**SMALL)
        rows = run_bench(cfg)
        assert [row.t for row in rows] == [1.0, 10.0]
        for row in rows:
            assert isinstance(row.kappa, float)
            for method in cfg.ordered_methods:
                for name in ("orth", "dec", "res", "stab"):
                    assert isinstance(row.cells[method][name], float)

    @pytest.mark.parametrize("example", ["1", "2"])
    def test_row_provenance_is_its_cell_seeds(self, example):
        cfg = BenchConfig(example=example, m=12, n=6, t_list=(1.0, 10.0), seed=3)
        for i, t in enumerate(cfg.t_list):
            a1, b1, c1, provenance = base_blocks(cfg, i)
            assert provenance == _cell_seeds(cfg.seed, cfg.example, i)
            assert scale_problem(a1, b1, c1, t, provenance).provenance == provenance

    def test_m_is_factored_once_and_eigensolved_once(self, monkeypatch):
        # ||M|| and kappa(M) come from one singular-value call on M, and
        # only the householder method runs a QR of M.
        from saddleqr import bench, householder, norms, saddle

        cfg = BenchConfig(example="1", m=12, n=6, t_list=(1.0,),
                          methods=("bcgs", "bcgs2", "householder"))
        a1, b1, c1, provenance = base_blocks(cfg, 0)
        ma = assemble(scale_problem(a1, b1, c1, 1.0, provenance).blocks).array
        qr_calls, sv_calls = [], []

        def spy(module, name, calls):
            original = getattr(module, name)

            def wrapper(x, *args, **kwargs):
                xa = x.array if isinstance(x, DenseMatrix) else x
                calls.append(np.array_equal(xa, ma))
                return original(x, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (householder, saddle):
            spy(module, "thin_householder_qr", qr_calls)
        for module in (norms, bench):
            spy(module, "_extreme_singular_values", sv_calls)
        (row,) = run_bench(cfg)
        assert isinstance(row.kappa, float)
        assert sum(qr_calls) == 1
        assert sum(sv_calls) == 1

    def test_row_of_three_methods_runs_eight_qrs(self, monkeypatch):
        # Generation 4, bcgs 2, the bcgs2 reorthogonalization 1 (its first
        # pass is the bcgs factorization), householder 1.  Counted at the
        # one in-place kernel: thin_householder_qr (through _thin_qr) and the
        # block panels call it.
        from saddleqr import blockgs, householder

        calls = []
        original = householder._qr_in_place

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (householder, blockgs):
            monkeypatch.setattr(module, "_qr_in_place", counted)
        run_bench(BenchConfig(example="2", m=20, n=10, t_list=(1.0,),
                              methods=("bcgs", "bcgs2", "householder")))
        assert len(calls) == 8

    def test_row_of_three_methods_assembles_m_once(self, monkeypatch):
        # scale_problem (for f), run_bench (for kappa and the metrics) and the
        # three solves share the blocks' one M, assembled when the blocks are built.
        from saddleqr import bench, saddle

        built, seen = [], []
        real_init, real_solve = saddle.SaddleBlocks.__init__, bench.solve_detailed
        real_sigma, real_dec = bench._extreme_singular_values, bench._decomposition_defect

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self.matrix.array)

        def solve(*args, **kwargs):
            detail = real_solve(*args, **kwargs)
            seen.append(detail.matrix.array)
            return detail

        def sigma(ma):
            seen.append(ma)
            return real_sigma(ma)

        def dec(ma, *rest):
            seen.append(ma)
            return real_dec(ma, *rest)

        monkeypatch.setattr(saddle.SaddleBlocks, "__init__", init)
        monkeypatch.setattr(bench, "solve_detailed", solve)
        monkeypatch.setattr(bench, "_extreme_singular_values", sigma)
        monkeypatch.setattr(bench, "_decomposition_defect", dec)
        run_bench(BenchConfig(example="2", m=20, n=10, t_list=(1.0,),
                              methods=("bcgs", "bcgs2", "householder")))
        assert len(built) == 1
        assert len(seen) == 7 and all(ma is built[0] for ma in seen)

    @pytest.mark.parametrize("example, m, n", [("1", 12, 6), ("2", 200, 100)])
    def test_bcgs2_cells_same_with_and_without_bcgs(self, example, m, n):
        def bcgs2_columns(methods):
            cfg = BenchConfig(example=example, m=m, n=n, methods=methods)
            header, *lines = render_csv(cfg, run_bench(cfg)).splitlines()
            keep = [k for k, name in enumerate(header.split(",")) if name.endswith("_bcgs2")]
            return [[line.split(",")[k] for k in keep] for line in lines]

        assert bcgs2_columns(("bcgs2",)) == bcgs2_columns(("bcgs", "bcgs2"))

    def test_failed_first_pass_fails_both_block_cells(self):
        # At t = 1e-160 the second panel of the first pass is rank deficient.
        for methods in (("bcgs", "bcgs2"), ("bcgs2",)):
            cfg = BenchConfig(example="1", m=12, n=6, t_list=(1e-160,), methods=methods)
            (row,) = run_bench(cfg)
            for method in methods:
                assert set(row.cells[method].values()) == {"ERR:rank_deficient"}

    def test_singular_kappa_marks_only_kappa_and_stab(self, monkeypatch):
        from saddleqr import bench
        from saddleqr.errors import SingularMatrixError

        def singular(sigma_max, sigma_min):
            raise SingularMatrixError("singular-to-working-precision")

        monkeypatch.setattr(bench, "_nonsingular", singular)
        (row,) = run_bench(BenchConfig(example="1", m=12, n=6, t_list=(1.0,)))
        assert row.kappa == "ERR:singular"
        for cells in row.cells.values():
            assert cells["stab"] == "ERR:singular"
            assert all(isinstance(cells[name], float) for name in ("orth", "dec", "res"))

    def test_deterministic_output(self):
        cfg = BenchConfig(**SMALL)
        a = render_csv(cfg, run_bench(cfg))
        b = render_csv(cfg, run_bench(cfg))
        assert a == b

    def test_csv_round_trip_exact(self, tmp_path):
        cfg = BenchConfig(**SMALL)
        rows = run_bench(cfg)
        path = tmp_path / "bench.csv"
        path.write_text(render_csv(cfg, rows) + "\n")  # a blank last line is skipped
        header, parsed = read_bench_csv(path)
        assert len(parsed) == len(rows)
        assert header[:2] == ["t", "kappa_M"]
        assert header[2:6] == ["orth_bcgs", "dec_bcgs", "res_bcgs", "stab_bcgs"]
        for row, back in zip(rows, parsed):
            assert back["t"] == row.t
            assert back["kappa_M"] == row.kappa
            for method in cfg.ordered_methods:
                for name in ("orth", "dec", "res", "stab"):
                    assert back[f"{name}_{method}"] == row.cells[method][name]
        # A truncated or overfull row, and an empty file, name the path and 1-based line.
        text = path.read_text().splitlines()
        for number, bad in ((3, "1,5,1,2"), (2, text[1] + ",1")):
            broken = tmp_path / "broken.csv"
            broken.write_text("\n".join([*text[:number - 1], bad, *text[number:]]) + "\n")
            with pytest.raises(ValueError, match=re.escape(f"{broken}:{number}:")):
                read_bench_csv(broken)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{empty}:1:")):
            read_bench_csv(empty)
        # No writer writes a non-finite cell, nor a "~" other than one on kappa_M.
        cells = text[1].split(",")
        for column, bad in ((2, "~~1e15"), (3, "~2.5"), (1, "nan"), (4, "inf"), (5, "-inf"),
                            (6, "ERR"), (2, "~ERR:singular")):
            broken.write_text("\n".join([text[0], ",".join(
                [*cells[:column - 1], bad, *cells[column:]])]) + "\n")
            with pytest.raises(ValueError, match=re.escape(f"{broken}:2: column {column} (")):
                read_bench_csv(broken)

    def test_markdown_layout(self):
        cfg = BenchConfig(**SMALL, fmt="md")
        text = render_markdown(cfg, run_bench(cfg))
        lines = text.splitlines()
        assert lines[0].startswith("| metric | t=1 | t=10 |")
        labels = [line.split("|")[1].strip() for line in lines[2:]]
        assert labels == [
            "kappa_M",
            "orth_BCGS", "orth_BCGS2",
            "dec_BCGS", "dec_BCGS2",
            "res_BCGS", "res_BCGS2",
            "stab_BCGS", "stab_BCGS2",
        ]

    def test_kappa_flagged_when_precision_limited(self, tmp_path):
        cfg = BenchConfig(example="1", m=4, n=2, t_list=(1.0,), methods=("bcgs2",))
        row = BenchRow(t=1.0, kappa=3e15)
        row.cells["bcgs2"] = {"orth": 1.0, "dec": 2.0, "res": 3.0, "stab": 4.0}
        text = render_csv(cfg, [row])
        assert ",~3" in text
        path = tmp_path / "k.csv"
        path.write_text(text)
        _, parsed = read_bench_csv(path)
        assert parsed[0]["kappa_M"] == 3e15

    def test_lapack_failure_gives_nonconverged_cells(self, eigen_fails, tmp_path, capsys):
        out = tmp_path / "nc.csv"
        code = main(["bench", "--example", "1", "--t-list", "1", "--out", str(out)])
        assert code == 1
        assert "1 with errors" in capsys.readouterr().out
        header, rows = read_bench_csv(out)
        assert all(rows[0][key] == "ERR:nonconverged" for key in header[1:])

    def test_error_cells_preserved(self, tmp_path):
        cfg = BenchConfig(example="1", m=4, n=2, t_list=(1.0,), methods=("bcgs2",))
        row = BenchRow(t=1.0, kappa=10.0)
        row.cells["bcgs2"] = {"orth": 1.0, "dec": 2.0, "res": "ERR:singular", "stab": 4.0}
        assert row.has_errors
        path = tmp_path / "e.csv"
        path.write_text(render_csv(cfg, [row]))
        _, parsed = read_bench_csv(path)
        assert parsed[0]["res_bcgs2"] == "ERR:singular"


POOLED = dict(example="2", m=20, n=10, t_list=(0.01, 1.0), methods=("bcgs", "bcgs2", "householder"))


@pytest.fixture
def pooled(monkeypatch):
    """Pool the metric eigensolves of tables from l = 30 up (POOLED's order)."""
    from saddleqr import bench

    monkeypatch.setattr(bench, "_POOL_MIN_ORDER", 30)


@pytest.fixture(params=["sequential", "pooled"])
def schedule(request, monkeypatch):
    """Run POOLED's tables (l = 30) with or without the metric pool."""
    from saddleqr import bench

    if request.param == "pooled":
        monkeypatch.setattr(bench, "_POOL_MIN_ORDER", 30)
    return request.param


def _spy_solves(monkeypatch, events, qs):
    """Log each ``bench`` solve in ``events``, and its Q by weak reference in ``qs``."""
    from saddleqr import bench

    def solve(blocks, f, method, real=bench.solve_detailed, **kwargs):
        events.append(("solve", method))
        detail = real(blocks, f, method, **kwargs)
        qs.append((method, weakref.ref(detail.q.array)))
        return detail

    monkeypatch.setattr(bench, "solve_detailed", solve)


def _owner(qa, qs):
    """The method whose solve made the Q ``qa``."""
    return next(method for method, ref in qs if ref() is qa)


class TestRowSchedules:
    def test_order_of_solves_and_metric_tasks(self, schedule, monkeypatch):
        # Both schedules start sigma(M) and the first method's defects when
        # the first solve returns, later defects after their solve.
        # Sequential rows run them one thing at a time; on pooled rows no
        # more than one task runs beside a solve.
        from saddleqr import bench

        events, caller, qs, running, seen = [], [], [], {"solve": 0, "task": 0}, []
        lock = threading.Lock()
        _spy_solves(monkeypatch, caller, qs)

        def tracked(kind, real, event):
            def run(*args, **kwargs):
                with lock:
                    running[kind] += 1
                    seen.append(dict(running))
                    events.append(event(*args))
                try:
                    return real(*args, **kwargs)
                finally:
                    with lock:
                        running[kind] -= 1
            return run

        monkeypatch.setattr(bench, "solve_detailed", tracked(
            "solve", bench.solve_detailed, lambda blocks, f, method: ("solve", method)))
        names = {}
        for name, event in (("_extreme_singular_values", lambda ma: ("sigma", None)),
                            ("_gram_defect", lambda qa: ("gram", _owner(qa, qs))),
                            ("_decomposition_defect", lambda ma, qa, ra: ("dec", _owner(qa, qs)))):
            spy = tracked("task", getattr(bench, name), event)
            names[spy] = name
            monkeypatch.setattr(bench, name, spy)

        def start(task, lane=None, real=bench._start):
            caller.append(("list", names[task[0]]))
            return real(task, lane)

        monkeypatch.setattr(bench, "_start", start)
        assert not any(row.has_errors for row in run_bench(BenchConfig(**POOLED)))
        methods = ("bcgs", "bcgs2", "householder")
        listed = [step for m in methods for step in (("solve", m), ("list", "_gram_defect"),
                                                     ("list", "_decomposition_defect"))]
        listed.insert(1, ("list", "_extreme_singular_values"))
        assert caller == 2 * listed
        assert len(events) == 2 * (3 + 7) == len(seen)
        for row in (events[:10], events[10:]):
            if schedule == "sequential":
                assert row == [("solve", "bcgs"), ("sigma", None), ("gram", "bcgs"),
                               ("dec", "bcgs")] + [(step, m) for m in methods[1:]
                                                   for step in ("solve", "gram", "dec")]
            else:
                assert [e for e in row if e[0] == "solve"] == [("solve", m) for m in methods]
                assert sorted(row, key=str) == sorted(
                    [("sigma", None)] + [(step, m) for m in methods
                                         for step in ("solve", "gram", "dec")], key=str)
                assert all(row.index((step, m)) > row.index(("solve", m))
                           for m in methods for step in ("gram", "dec"))
                assert row.index(("sigma", None)) > row.index(("solve", "bcgs"))
        if schedule == "sequential":
            assert all(state["solve"] + state["task"] == 1 for state in seen)
        else:  # a task beside a solve is the lane's; after the solves, two at most
            assert all(state["task"] <= (1 if state["solve"] else 2) for state in seen)
            assert all(state["solve"] <= 1 for state in seen)

    def test_no_earlier_q_is_alive_when_a_method_is_scored(self, monkeypatch):
        # A sequential row holds one method's Q while it scores it, so a
        # paper-scale row keeps no more than that.
        from saddleqr import bench

        events, qs, scored = [], [], []
        _spy_solves(monkeypatch, events, qs)

        def spied(real, q_at):
            def defect(*args):
                qa = args[q_at]
                others = [method for method, ref in qs if ref() is not None and ref() is not qa]
                scored.append((_owner(qa, qs), others))
                return real(*args)
            return defect

        monkeypatch.setattr(bench, "_gram_defect", spied(bench._gram_defect, 0))
        monkeypatch.setattr(bench, "_decomposition_defect", spied(bench._decomposition_defect, 1))
        assert not run_bench(BenchConfig(**{**POOLED, "t_list": (1.0,)}))[0].has_errors
        assert scored == [(method, []) for method in ("bcgs", "bcgs2", "householder")
                          for _ in range(2)]


class TestPooledRows:
    def test_same_cells_as_the_sequential_path_at_one_thread(self, monkeypatch):
        # The pooled table runs on one OpenBLAS thread; so does the sequential
        # one here, and both score with the same code.
        from saddleqr import bench

        cfg = BenchConfig(**POOLED)
        with _openblas.one_thread():
            sequential = render_csv(cfg, run_bench(cfg))
        monkeypatch.setattr(bench, "_POOL_MIN_ORDER", 30)
        assert render_csv(cfg, run_bench(cfg)) == sequential

    def test_same_cells_when_threads_switch_often(self, monkeypatch):
        # The lane and this thread split each row's tasks between them; a GIL
        # switch every 10 us stresses the hand-offs, and the bytes must hold.
        from saddleqr import bench

        cfg = BenchConfig(**{**POOLED, "t_list": (0.01, 0.1, 1.0, 10.0, 100.0)})
        with _openblas.one_thread():
            sequential = render_csv(cfg, run_bench(cfg))
        monkeypatch.setattr(bench, "_POOL_MIN_ORDER", 30)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = render_csv(cfg, run_bench(cfg))
        finally:
            sys.setswitchinterval(interval)
        assert pooled == sequential

    def test_failing_sigma_task_marks_the_whole_row(self, schedule, monkeypatch):
        from saddleqr import bench

        def fails(xa):
            raise NonConvergedError("LAPACK did not converge: dstebz INFO = 1")

        monkeypatch.setattr(bench, "_extreme_singular_values", fails)
        for row in run_bench(BenchConfig(**POOLED)):
            assert row.kappa == "ERR:nonconverged"
            for cells in row.cells.values():
                assert set(cells.values()) == {"ERR:nonconverged"}

    def test_failing_defect_task_marks_only_its_method(self, schedule, monkeypatch):
        from saddleqr import bench

        cfg = BenchConfig(**POOLED)
        clean = run_bench(cfg)
        qs = []
        _spy_solves(monkeypatch, [], qs)

        def gram_defect(qa, real=bench._gram_defect):
            if _owner(qa, qs) == "bcgs2":
                raise NonConvergedError("LAPACK did not converge: dstebz INFO = 1")
            return real(qa)

        monkeypatch.setattr(bench, "_gram_defect", gram_defect)
        for row, ref in zip(run_bench(cfg), clean):
            assert row.kappa == ref.kappa
            assert set(row.cells["bcgs2"].values()) == {"ERR:nonconverged"}
            for method in ("bcgs", "householder"):
                assert row.cells[method] == ref.cells[method]

    @pytest.mark.skipif(_openblas.library() is None, reason="needs numpy's bundled OpenBLAS")
    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "task_raises"])
    def test_thread_count_is_one_inside_and_restored_after(self, pooled, monkeypatch, raises):
        from saddleqr import bench

        lib, seen = _openblas.library(), []
        before = lib.scipy_openblas_get_num_threads64_()

        def gram_defect(qa, real=bench._gram_defect):
            seen.append(lib.scipy_openblas_get_num_threads64_())
            if raises:
                raise RuntimeError("not a LinAlgError, so it leaves run_bench")
            return real(qa)

        monkeypatch.setattr(bench, "_gram_defect", gram_defect)
        lib.scipy_openblas_set_num_threads64_(2)
        try:
            if raises:
                with pytest.raises(RuntimeError):
                    run_bench(BenchConfig(**POOLED))
            else:
                run_bench(BenchConfig(**POOLED))
            assert lib.scipy_openblas_get_num_threads64_() == 2
        finally:
            lib.scipy_openblas_set_num_threads64_(before)
        # Every task of the rows run, the first row's when a task raises, is
        # done when run_bench returns, and none ran on two threads.
        assert seen == [1] * (3 if raises else 6)

    def test_size_rule(self, monkeypatch):
        # Example 1 (l = 18) and the paper-scale presets (l = 1500, 3100) run
        # as before: no pin around the table and no pool.
        from saddleqr import bench

        low = bench._POOL_MIN_ORDER
        orders = (18, low - 1, low, 300, 796, 797, 1500, 3100)
        assert [bench._pools(l) for l in orders] == [False, False, True, True, True, False,
                                                      False, False]
        monkeypatch.setattr(bench, "one_thread", None)  # calling it would raise
        assert not run_bench(BenchConfig(example="1", m=12, n=6, t_list=(1.0,)))[0].has_errors


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 2.98 GiB for an array")


def _cli_under_memory_limit(args) -> subprocess.CompletedProcess:
    """``saddleqr <args>`` in a child whose address space is capped at 512 MiB
    (``RLIMIT_AS``, set in the child only), so an allocation past it raises
    ``MemoryError`` there; no kernel OOM kill is involved.  The import needs
    about 143 MB; one BLAS thread keeps that independent of the core count."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = Path(saddleqr.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "saddleqr.cli", *args], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=120)


class TestMemoryFailures:
    """A ``MemoryError`` in a row becomes ``ERR:memory`` cells, and ``gen`` and
    ``solve`` exit 1 with a message.  Most raise from a patched function; the
    ``real`` tests allocate past a memory limit in a child process."""

    def test_real_bench_writes_the_cells_and_exits_1(self, tmp_path):
        # A1 alone is 512 MB and M would be 1.15 GB.
        out = tmp_path / "oom.csv"
        done = _cli_under_memory_limit(["bench", "--example", "custom", "--m", "8000",
                                        "--n", "4000", "--t-list", "1", "--out", str(out)])
        assert done.returncode == 1, done.stderr
        assert "1 with errors" in done.stdout
        header, rows = read_bench_csv(out)
        assert len(rows) == 1 and all(rows[0][key] == "ERR:memory" for key in header[1:])

    def test_real_gen_exits_1_with_a_message(self, tmp_path):
        out = tmp_path / "m.mtx"
        done = _cli_under_memory_limit(["gen", "--kind", "matrix2", "--n", "8000",
                                        "--out", str(out)])
        assert done.returncode == 1
        assert "gen: out of memory" in done.stderr
        assert not out.exists()

    def test_generator_marks_the_row(self, schedule, monkeypatch):
        from saddleqr import bench

        monkeypatch.setattr(bench, "matrix2", _out_of_memory)
        for row in run_bench(BenchConfig(**POOLED)):
            assert row.kappa == "ERR:memory"
            for cells in row.cells.values():
                assert set(cells.values()) == {"ERR:memory"}

    def test_solve_marks_only_its_method(self, schedule, monkeypatch):
        from saddleqr import bench

        cfg = BenchConfig(**POOLED)
        clean = run_bench(cfg)

        def solve(blocks, f, method, real=bench.solve_detailed, **kwargs):
            if method == "bcgs2":
                _out_of_memory()
            return real(blocks, f, method, **kwargs)

        monkeypatch.setattr(bench, "solve_detailed", solve)
        for row, ref in zip(run_bench(cfg), clean):
            assert row.kappa == ref.kappa
            assert set(row.cells["bcgs2"].values()) == {"ERR:memory"}
            for method in ("bcgs", "householder"):
                assert row.cells[method] == ref.cells[method]

    def test_metric_task_marks_only_its_method(self, schedule, monkeypatch):
        from saddleqr import bench

        cfg = BenchConfig(**POOLED)
        clean = run_bench(cfg)
        qs = []
        _spy_solves(monkeypatch, [], qs)

        def decomposition_defect(ma, qa, ra, real=bench._decomposition_defect):
            if _owner(qa, qs) == "householder":
                _out_of_memory()
            return real(ma, qa, ra)

        monkeypatch.setattr(bench, "_decomposition_defect", decomposition_defect)
        for row, ref in zip(run_bench(cfg), clean):
            assert row.kappa == ref.kappa
            assert set(row.cells["householder"].values()) == {"ERR:memory"}
            for method in ("bcgs", "bcgs2"):
                assert row.cells[method] == ref.cells[method]

    def test_bench_cli_writes_the_cells_and_exits_1(self, monkeypatch, tmp_path, capsys):
        from saddleqr import bench

        monkeypatch.setattr(bench, "hilbert", _out_of_memory)
        out = tmp_path / "oom.csv"
        assert main(["bench", "--example", "1", "--t-list", "1", "--out", str(out)]) == 1
        assert "1 with errors" in capsys.readouterr().out
        header, rows = read_bench_csv(out)
        assert all(rows[0][key] == "ERR:memory" for key in header[1:])

    def test_gen_exits_1_with_a_message(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "matrix2", _out_of_memory)
        out = tmp_path / "m.mtx"
        assert main(["gen", "--kind", "matrix2", "--n", "4", "--out", str(out)]) == 1
        assert "gen: out of memory (Unable to allocate" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_exits_1_with_a_message(self, saddle_files, monkeypatch, capsys):
        monkeypatch.setattr(cli, "solve_detailed", _out_of_memory)
        code = main([
            "solve", "--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(saddle_files["f"]),
            "--out", str(saddle_files["out"]),
        ])
        assert code == 1
        assert "solve: out of memory" in capsys.readouterr().err
        assert not saddle_files["out"].exists()


@pytest.fixture()
def saddle_files(tmp_path):
    blocks = SaddleBlocks(
        a=DenseMatrix([[2.0, 0.0], [0.0, 2.0]]),
        b=DenseMatrix([[1.0], [0.0]]),
        c=DenseMatrix([[1.0]]),
    )
    paths = {}
    for name, mat in (("a", blocks.a), ("b", blocks.b), ("c", blocks.c)):
        paths[name] = tmp_path / f"{name}.mtx"
        write_matrix(paths[name], mat)
    paths["f"] = tmp_path / "f.mtx"
    write_vector(paths["f"], Vector([1.0, 0.0, 0.0]))
    paths["z_star"] = tmp_path / "zs.mtx"
    write_vector(paths["z_star"], Vector([1.0 / 3.0, 0.0, 1.0 / 3.0]))
    paths["out"] = tmp_path / "z.mtx"
    return paths


class TestCliGen:
    def test_hilbert_file(self, tmp_path, capsys):
        out = tmp_path / "h3.mtx"
        assert main(["gen", "--kind", "hilbert", "--m", "3", "--out", str(out)]) == 0
        assert np.array_equal(read_matrix(out).array, hilbert(3).array)
        assert "kappa:" in capsys.readouterr().out

    def test_matrix1_prints_kappa_band(self, tmp_path, capsys):
        out = tmp_path / "m1.mtx"
        code = main([
            "gen", "--kind", "matrix1", "--m", "12", "--n", "6",
            "--s", "10", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        kappa = float(capsys.readouterr().out.split("kappa:")[1])
        assert 10**9.5 <= kappa <= 10**10.5

    def test_ones_rank_one_singular_kappa_still_writes(self, tmp_path, capsys):
        out = tmp_path / "ones.mtx"
        assert main(["gen", "--kind", "ones_rank_one", "--n", "4", "--out", str(out)]) == 0
        assert np.array_equal(read_matrix(out).array, np.ones((4, 4)))
        assert "singular-to-working-precision" in capsys.readouterr().out

    def test_lapack_failure_in_kappa_still_writes(self, tmp_path, capsys, eigen_fails):
        # hilbert(3) is symmetric, so its kappa comes from its eigenvalues.
        out = tmp_path / "h3.mtx"
        assert main(["gen", "--kind", "hilbert", "--m", "3", "--out", str(out)]) == 0
        assert np.array_equal(read_matrix(out).array, hilbert(3).array)
        assert "kappa: LAPACK did not converge" in capsys.readouterr().out

    def test_invalid_spec_exits_2(self, tmp_path):
        assert main(["gen", "--kind", "matrix1", "--m", "2", "--n", "5",
                     "--out", str(tmp_path / "x.mtx")]) == 2

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_each_kind_is_its_generator_at_s_0_and_seed_0(self, tmp_path, kind):
        # --s and --seed left out take 0, as the parser states.
        sizes, direct = {
            "matrix1": (["--m", "5", "--n", "3"], lambda: matrix1(5, 3, 0.0, 0)),
            "matrix2": (["--n", "4"], lambda: matrix2(4, 0.0, 0)),
            "hilbert": (["--n", "4"], lambda: hilbert(4)),
            "ones_rank_one": (["--n", "4"], lambda: ones_rank_one(4)),
        }[kind]
        out, ref = tmp_path / "gen.mtx", tmp_path / "ref.mtx"
        assert main(["gen", "--kind", kind, *sizes, "--out", str(out)]) == 0
        write_matrix(ref, direct())
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("kind", ["matrix2", "hilbert", "ones_rank_one"])
    def test_square_kind_of_size_0_exits_2_and_names_the_size(self, tmp_path, capsys, kind):
        out = tmp_path / "x.mtx"
        assert main(["gen", "--kind", kind, "--n", "0", "--out", str(out)]) == 2
        assert "size must be positive, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "matrix3", "--n", "4", "--out", str(tmp_path / "x.mtx")])
        assert exc.value.code == 2
        assert "invalid choice: 'matrix3'" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--kind", "matrix1", "--m", "3"], "matrix1 requires both --m and --n"),
        (["--kind", "hilbert"], "hilbert requires a size (--n or --m)"),
    ], ids=["matrix1", "hilbert"])
    def test_incomplete_spec_exits_2_with_its_message(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.mtx"
        assert main(["gen", *args, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sizes, error", [
        (["--m", "5", "--n", "5"], None),
        (["--m", "5"], None),
        (["--n", "5"], None),
        (["--m", "7", "--n", "5"], "hilbert is square, but --m 7 and --n 5 differ"),
    ], ids=["equal", "m_alone", "n_alone", "conflicting"])
    def test_square_kind_takes_one_size(self, tmp_path, capsys, sizes, error):
        out = tmp_path / "h.mtx"
        code = main(["gen", "--kind", "hilbert", *sizes, "--out", str(out)])
        if error:
            assert code == 2 and not out.exists()
            assert error in capsys.readouterr().err
        else:
            assert code == 0
            assert np.array_equal(read_matrix(out).array, hilbert(5).array)

    # The flag of a precision-limited kappa (>= 1e14), as bench writes kappa_M.
    @pytest.mark.parametrize("args, flagged", [
        (["--kind", "hilbert", "--n", "12"], True),
        (["--kind", "ones_rank_one", "--n", "3"], True),  # rank one: sigma_min is rounding
        (["--kind", "matrix1", "--m", "12", "--n", "6", "--s", "10", "--seed", "1"], False),
    ], ids=["hilbert", "ones_rank_one", "matrix1"])
    def test_kappa_line_flags_precision_limited_values(self, tmp_path, capsys, args, flagged):
        assert main(["gen", *args, "--out", str(tmp_path / "x.mtx")]) == 0
        text = capsys.readouterr().out.strip()
        kappa = float(text.removeprefix("kappa: ").removeprefix("~"))
        assert text.startswith("kappa: ~") == flagged == (kappa >= KAPPA_FLAG_LIMIT)
        if not flagged:
            assert text == "kappa: 1.000000e+10"


class TestCliSolve:
    def test_cramer_system(self, saddle_files):
        code = main([
            "solve", "--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(saddle_files["f"]),
            "--method", "bcgs2", "--out", str(saddle_files["out"]),
        ])
        assert code == 0
        z = read_vector(saddle_files["out"])
        assert np.allclose(z.array, [1.0 / 3.0, 0.0, 1.0 / 3.0], atol=1e-12)

    def test_missing_file_exits_2(self, saddle_files, capsys):
        code = main([
            "solve", "--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
            "--c", "/nonexistent/c.mtx", "--f", str(saddle_files["f"]),
            "--out", str(saddle_files["out"]),
        ])
        assert code == 2
        assert "/nonexistent/c.mtx" in capsys.readouterr().err

    @staticmethod
    def _solve_files(tmp_path, blocks, f, method="bcgs2", *extra):
        paths = {}
        for name, mat in (("a", blocks.a), ("b", blocks.b), ("c", blocks.c)):
            paths[name] = tmp_path / f"{name}.mtx"
            write_matrix(paths[name], mat)
        write_vector(tmp_path / "f.mtx", f)
        return main([
            "solve", "--a", str(paths["a"]), "--b", str(paths["b"]),
            "--c", str(paths["c"]), "--f", str(tmp_path / "f.mtx"),
            "--method", method, "--out", str(tmp_path / "z.mtx"), *extra,
        ])

    def test_singular_system_exits_1(self, tmp_path, capsys):
        # Example 1 at t = 1e-160 meets the hypotheses, but kappa(M) is near
        # 1e320 and every factorization is rank deficient.
        cfg = BenchConfig(example="1", m=12, n=6, t_list=(1e-160,))
        problem = scale_problem(*base_blocks(cfg, 0)[:3], 1e-160)
        for method in ("bcgs", "bcgs2", "householder"):
            assert self._solve_files(tmp_path, problem.blocks, problem.f, method) == 1
            err = capsys.readouterr().err
            assert "solve failed" in err and "rank-deficient" in err
            assert not (tmp_path / "z.mtx").exists()

    @pytest.mark.parametrize("a, b, c, named", [
        ([[1.0, 0.0], [0.0, 1.0]], [[0.0], [0.0]], [[0.0]], "B is rank-deficient"),
        ([[1.0]], [[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], "B is rank-deficient or wider"),
        ([[1.0, 2.0], [2.0, 1.0]], [[1.0], [0.0]], [[1.0]], "A is not positive definite"),
        ([[1.0, 0.5], [0.0, 1.0]], [[1.0], [0.0]], [[1.0]], "A is not symmetric"),
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0]], [[-1.0]], "C is not symmetric positive"),
    ])
    def test_broken_hypothesis_exits_2_and_names_it(self, tmp_path, capsys, a, b, c, named):
        blocks = SaddleBlocks(a=DenseMatrix(a), b=DenseMatrix(b), c=DenseMatrix(c))
        assert self._solve_files(tmp_path, blocks, Vector(np.ones(blocks.l))) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "z.mtx").exists()

    def test_report_requires_z_star(self, saddle_files):
        code = main([
            "solve", "--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(saddle_files["f"]),
            "--out", str(saddle_files["out"]), "--report", str(saddle_files["out"]) + ".csv",
        ])
        assert code == 2

    def test_metrics_report_row(self, saddle_files, tmp_path):
        report = tmp_path / "report.csv"
        code = main([
            "solve", "--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(saddle_files["f"]),
            "--out", str(saddle_files["out"]),
            "--z-star", str(saddle_files["z_star"]), "--report", str(report),
        ])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "method,kappa_M,orth,dec,res,stab"
        cells = lines[1].split(",")
        assert cells[0] == "bcgs2"
        assert all(float(c) >= 0 for c in cells[1:])

    @pytest.mark.parametrize("command", ["solve", "gen", "bench"])
    def test_unwritable_out_exits_2(self, saddle_files, tmp_path, capsys, command):
        out = tmp_path / "missing" / "z.mtx"
        args = {
            "solve": ["--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
                      "--c", str(saddle_files["c"]), "--f", str(saddle_files["f"])],
            "gen": ["--kind", "hilbert", "--n", "3"],
            "bench": ["--example", "1", "--t-list", "1", "--methods", "bcgs2"],
        }[command]
        assert main([command, *args, "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_unreadable_file_exits_2(self, saddle_files, tmp_path, capsys):
        # A directory opens with an OSError other than FileNotFoundError.
        code = main([
            "solve", "--a", str(tmp_path), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(saddle_files["f"]),
            "--out", str(saddle_files["out"]),
        ])
        assert code == 2
        assert f"cannot read {tmp_path}" in capsys.readouterr().err
        assert not saddle_files["out"].exists()

    def test_non_utf8_file_exits_2_and_names_it(self, saddle_files, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_bytes(b"\xff\xfe%%MatrixMarket matrix array real general\n1 1\n1\n")
        code = main([
            "solve", "--a", str(bad), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(saddle_files["f"]),
            "--out", str(saddle_files["out"]),
        ])
        assert code == 2
        assert f"{bad}:1: not UTF-8 text" in capsys.readouterr().err
        assert not saddle_files["out"].exists()

    def test_failed_validation_exits_1(self, saddle_files, capsys, eigen_fails):
        code = main([
            "solve", "--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(saddle_files["f"]),
            "--out", str(saddle_files["out"]),
        ])
        assert code == 1
        assert "validate failed" in capsys.readouterr().err
        assert not saddle_files["out"].exists()

    def test_failed_metrics_exit_1(self, saddle_files, tmp_path, capsys):
        # f = 0 gives z = 0, which has no forward-error ratio.
        zero_f, report = tmp_path / "zero.mtx", tmp_path / "report.csv"
        write_vector(zero_f, Vector([0.0, 0.0, 0.0]))
        code = main([
            "solve", "--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(zero_f),
            "--out", str(saddle_files["out"]),
            "--z-star", str(saddle_files["z_star"]), "--report", str(report),
        ])
        assert code == 1
        assert "metrics failed" in capsys.readouterr().err
        assert np.array_equal(read_vector(saddle_files["out"]).array, [0.0, 0.0, 0.0])
        assert not report.exists()

    def test_report_row_is_the_bench_row(self, tmp_path, capsys):
        # Example 1 at t = 0.01 has kappa(M) near 7.6e17: solve flags it on
        # stdout and in the report, as bench flags kappa_M.
        cfg = BenchConfig(example="1", m=12, n=6, t_list=(0.01,), methods=("bcgs2",))
        problem = scale_problem(*base_blocks(cfg, 0)[:3], 0.01)
        z_star, report = tmp_path / "zs.mtx", tmp_path / "report.csv"
        write_vector(z_star, problem.z_star)
        code = self._solve_files(tmp_path, problem.blocks, problem.f, "bcgs2",
                                 "--z-star", str(z_star), "--report", str(report))
        assert code == 0
        text = report.read_text()
        assert capsys.readouterr().out.endswith(text)
        bench_row = render_csv(cfg, run_bench(cfg)).splitlines()[1].split(",")
        header, row = text.splitlines()
        assert header == "method,kappa_M,orth,dec,res,stab"
        assert row.split(",") == ["bcgs2", *bench_row[1:]]
        assert row.split(",")[1].startswith("~")

    def test_unwritable_report_exits_2(self, saddle_files, tmp_path, capsys):
        report = tmp_path / "missing" / "report.csv"
        code = main([
            "solve", "--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(saddle_files["f"]),
            "--out", str(saddle_files["out"]),
            "--z-star", str(saddle_files["z_star"]), "--report", str(report),
        ])
        assert code == 2
        assert f"cannot write {report}" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, saddle_files, tmp_path, capsys):
        short_f = tmp_path / "short.mtx"
        write_vector(short_f, Vector([1.0, 0.0]))
        code = main([
            "solve", "--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(short_f),
            "--out", str(saddle_files["out"]),
        ])
        assert code == 2
        assert "length 2" in capsys.readouterr().err


class TestCliBench:
    def test_small_run(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--example", "1", "--m", "12", "--n", "6",
            "--t-list", "1", "--methods", "bcgs2", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_bench_csv(out)
        assert header == ["t", "kappa_M", "orth_bcgs2", "dec_bcgs2", "res_bcgs2", "stab_bcgs2"]
        assert rows[0]["t"] == 1.0

    def test_byte_identical_between_runs(self, tmp_path):
        args = [
            "bench", "--example", "1", "--m", "12", "--n", "6",
            "--t-list", "0.1,1", "--seed", "3", "--methods", "bcgs,bcgs2",
        ]
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_error_cells_exit_1(self, tmp_path, capsys):
        # householder on the t=0.01 scaling of the Hilbert family is
        # numerically rank deficient for this seed
        out = tmp_path / "err.csv"
        code = main([
            "bench", "--example", "1", "--m", "12", "--n", "6", "--seed", "0",
            "--t-list", "0.01", "--methods", "householder", "--out", str(out),
        ])
        assert code == 1
        _, rows = read_bench_csv(out)
        assert rows[0]["orth_householder"] == "ERR:rank_deficient"

    def test_byte_identical_across_processes_at_fixed_thread_count(self, tmp_path):
        # Internal products go through BLAS, whose results may depend on
        # its thread count, so each count is checked on its own.  l=180 is
        # large enough for OpenBLAS to split products between threads.
        src = Path(saddleqr.__file__).resolve().parent.parent
        args = [
            sys.executable, "-m", "saddleqr.cli", "bench", "--example", "2",
            "--m", "120", "--n", "60", "--t-list", "1",
            "--methods", "bcgs,bcgs2,householder",
        ]
        for threads in sorted({1, min(2, os.cpu_count() or 1)}):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(src), env.get("PYTHONPATH")) if p
            )
            outs = [tmp_path / f"t{threads}-{k}.csv" for k in range(2)]
            for out in outs:
                subprocess.run(args + ["--out", str(out)], env=env, check=True,
                               capture_output=True, timeout=300)
            assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("t", ["1e155", "1e160", "1e-320"])
    def test_extreme_scale_gives_overflow_cells(self, tmp_path, capsys, t):
        out = tmp_path / "extreme.csv"
        code = main([
            "bench", "--example", "1", "--t-list", t,
            "--methods", "bcgs,bcgs2,householder", "--out", str(out),
        ])
        assert code == 1
        assert "1 with errors" in capsys.readouterr().out
        header, rows = read_bench_csv(out)
        assert all(rows[0][key] == "ERR:overflow" for key in header[1:])

    def test_tiny_scale_is_diagnosed_singular(self, tmp_path, capsys):
        # t = 1e-160 gives kappa(M) near 1e320: the eigensolve of M runs,
        # the singular gate rejects its sigma_min, and every block panel is
        # rank deficient.
        out = tmp_path / "tiny.csv"
        code = main([
            "bench", "--example", "1", "--t-list", "1e-160",
            "--methods", "bcgs,bcgs2,householder", "--out", str(out),
        ])
        assert code == 1
        assert "1 with errors" in capsys.readouterr().out
        header, rows = read_bench_csv(out)
        assert rows[0]["kappa_M"] == "ERR:singular"
        assert all(rows[0][key] == "ERR:rank_deficient" for key in header[2:])

    @pytest.mark.parametrize("m, n", [(5, 1), (3, 3)])
    def test_edge_splits_stay_in_band(self, tmp_path, m, n):
        # A one-column second panel, and a second panel as wide as the first.
        out = tmp_path / "edge.csv"
        code = main([
            "bench", "--example", "custom", "--m", str(m), "--n", str(n),
            "--methods", "bcgs,bcgs2,householder", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_bench_csv(out)
        assert not [key for row in rows for key in header if isinstance(row[key], str)]
        for row in rows:
            assert all(row[f"dec_{method}"] <= 1e3 for method in ("bcgs", "bcgs2", "householder"))
            assert row["res_bcgs2"] <= 1e2 and row["stab_bcgs2"] <= 1e2
            assert row["orth_bcgs2"] <= 1e3

    @pytest.mark.parametrize("args, expected", [
        ([], {}),
        (["--example", "2"], dict(example="2", m=1000, n=500)),
        (["--example", "3"], dict(example="3", m=3000, n=100)),
        (["--example", "custom", "--m", "10", "--n", "4", "--sA", "1", "--sB", "2",
          "--sC", "3", "--t-list", "1, 2", "--seed", "5", "--methods", "householder, bcgs",
          "--format", "md"],
         dict(example="custom", m=10, n=4, s_a=1.0, s_b=2.0, s_c=3.0, t_list=(1.0, 2.0),
              seed=5, methods=("householder", "bcgs"), fmt="md")),
    ], ids=["defaults", "example2", "example3", "every_flag"])
    def test_flags_left_out_take_bench_config_defaults(self, tmp_path, monkeypatch, args,
                                                        expected):
        built = []
        monkeypatch.setattr(cli, "run_bench", lambda cfg: built.append(cfg) or [])
        assert main(["bench", *args, "--out", str(tmp_path / "x")]) == 0
        assert built == [BenchConfig(**expected)]

    def test_custom_requires_sizes(self, tmp_path):
        assert main(["bench", "--example", "custom", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("args", [
        ["bench", "--t-list", "nan"],
        ["bench", "--t-list", "inf"],
        ["bench", "--t-list", "1,-inf"],
        ["bench", "--sB", "-3"],
        ["bench", "--sB", "nan"],
        ["bench", "--sA", "inf"],
        ["bench", "--example", "2", "--m", "4", "--n", "2", "--sC", "-1"],
        ["gen", "--kind", "matrix2", "--n", "4", "--s", "nan"],
        ["gen", "--kind", "matrix1", "--m", "4", "--n", "2", "--s", "inf"],
    ])
    def test_bad_scale_or_decade_exits_2_and_writes_nothing(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 2
        assert not out.exists()
        assert "saddleqr: error:" in capsys.readouterr().err

    def test_markdown_format(self, tmp_path):
        out = tmp_path / "bench.md"
        code = main([
            "bench", "--example", "1", "--m", "12", "--n", "6",
            "--t-list", "1", "--methods", "bcgs2", "--format", "md", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("| metric | t=1 |")


@pytest.fixture()
def libc(monkeypatch):
    """A stand-in C library for ``cli._keep_freed_pages``: its ``mallopt``
    records each (param, value) call and returns ``libc.result``; other
    libraries load as usual.  The helper's cache is cleared around the test."""
    fake = types.SimpleNamespace(calls=[], result=1, loads=0)

    def mallopt(param, value):
        fake.calls.append((param, value))
        return fake.result

    fake.mallopt = mallopt

    def load(name, *args, real=ctypes.CDLL, **kwargs):
        if name != "libc.so.6":
            return real(name, *args, **kwargs)
        fake.loads += 1
        return fake

    monkeypatch.setattr(ctypes, "CDLL", load)
    cli._keep_freed_pages.cache_clear()
    yield fake
    cli._keep_freed_pages.cache_clear()


class TestKeepFreedPages:
    MMAP, TRIM = (-3, 256 << 20), (-1, 256 << 20)

    def test_runs_once_across_two_cli_calls(self, libc, tmp_path):
        for _ in range(2):
            assert main(["bench", "--example", "custom", "--out", str(tmp_path / "x.csv")]) == 2
        assert libc.loads == 1 and len(libc.calls) == 2

    def test_mmap_threshold_before_trim_threshold(self, libc):
        cli._keep_freed_pages()
        assert libc.calls == [self.MMAP, self.TRIM]

    def test_trim_threshold_only_after_the_mmap_threshold_took(self, libc):
        libc.result = 0
        cli._keep_freed_pages()
        assert libc.calls == [self.MMAP]

    def test_no_op_without_mallopt_or_c_library(self, libc, monkeypatch):
        del libc.mallopt
        assert cli._keep_freed_pages() is None
        assert libc.loads == 1 and libc.calls == []
        cli._keep_freed_pages.cache_clear()

        def missing(name, *args, **kwargs):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", missing)
        assert cli._keep_freed_pages() is None


# What `import saddleqr.cli` may load beyond numpy and saddleqr itself: every
# process of the CLI pays for these before it parses its arguments.
CLI_IMPORTS = {"__future__", "argparse", "copy", "dataclasses", "gettext", "glob",
               "numpy.linalg.lapack_lite"}


def test_cli_leaves_the_metric_lane_import_unpaid(tmp_path):
    # bench._metric_lane imports concurrent.futures only when a pooled table
    # first needs it, which keeps that import off every gen and solve
    # process.  A fresh process, since this one has imported it already.
    # Any other module the import adds must be on CLI_IMPORTS; fewer pass.
    src = Path(saddleqr.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    script = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from saddleqr import cli\n"
        f"allowed = {sorted(CLI_IMPORTS)!r}\n"
        "added = {m for m in set(sys.modules) - before if m.split('.')[0] != 'saddleqr'}\n"
        "extra = sorted(added.difference(allowed))\n"
        "assert not extra, f'saddleqr.cli imports {extra}'\n"
        "assert 'concurrent.futures' not in sys.modules, 'imported by saddleqr.cli'\n"
        "assert cli.main(['gen', '--kind', 'hilbert', '--n', '3', '--out', sys.argv[1]]) == 0\n"
        "assert 'concurrent.futures' not in sys.modules, 'imported by gen'\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "h.mtx")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

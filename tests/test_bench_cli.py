import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saddleqr
from saddleqr import DenseMatrix, Vector, hilbert, read_matrix, read_vector, write_matrix, write_vector
from saddleqr.bench import (
    BenchConfig,
    BenchRow,
    read_bench_csv,
    render_csv,
    render_markdown,
    run_bench,
)
from saddleqr.cli import main
from saddleqr.saddle import assemble, SaddleBlocks

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
            BenchConfig(example="1", m=4, n=2, methods=("qr",))
        with pytest.raises(ValueError):
            BenchConfig(example="1", m=4, n=2, fmt="html")

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

    def test_deterministic_output(self):
        cfg = BenchConfig(**SMALL)
        a = render_csv(cfg, run_bench(cfg))
        b = render_csv(cfg, run_bench(cfg))
        assert a == b

    def test_csv_round_trip_exact(self, tmp_path):
        cfg = BenchConfig(**SMALL)
        rows = run_bench(cfg)
        path = tmp_path / "bench.csv"
        path.write_text(render_csv(cfg, rows))
        header, parsed = read_bench_csv(path)
        assert header[:2] == ["t", "kappa_M"]
        assert header[2:6] == ["orth_bcgs", "dec_bcgs", "res_bcgs", "stab_bcgs"]
        for row, back in zip(rows, parsed):
            assert back["t"] == row.t
            assert back["kappa_M"] == row.kappa
            for method in cfg.ordered_methods:
                for name in ("orth", "dec", "res", "stab"):
                    assert back[f"{name}_{method}"] == row.cells[method][name]

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

    def test_lapack_failure_gives_nonconverged_cells(self, monkeypatch, tmp_path, capsys):
        def fails(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
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

    def test_lapack_failure_in_kappa_still_writes(self, tmp_path, capsys, monkeypatch):
        def fails(a, compute_uv=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fails)
        out = tmp_path / "h3.mtx"
        assert main(["gen", "--kind", "hilbert", "--m", "3", "--out", str(out)]) == 0
        assert np.array_equal(read_matrix(out).array, hilbert(3).array)
        assert "kappa: LAPACK did not converge" in capsys.readouterr().out

    def test_invalid_spec_exits_2(self, tmp_path):
        assert main(["gen", "--kind", "matrix1", "--m", "2", "--n", "5",
                     "--out", str(tmp_path / "x.mtx")]) == 2


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

    def test_singular_system_exits_1(self, tmp_path, capsys):
        paths = {}
        blocks = SaddleBlocks(
            a=DenseMatrix.identity(2),
            b=DenseMatrix.zeros(2, 1),
            c=DenseMatrix([[0.0]]),
        )
        for name, mat in (("a", blocks.a), ("b", blocks.b), ("c", blocks.c)):
            paths[name] = tmp_path / f"{name}.mtx"
            write_matrix(paths[name], mat)
        fpath = tmp_path / "f.mtx"
        write_vector(fpath, Vector([1.0, 1.0, 0.0]))
        code = main([
            "solve", "--a", str(paths["a"]), "--b", str(paths["b"]),
            "--c", str(paths["c"]), "--f", str(fpath),
            "--out", str(tmp_path / "z.mtx"),
        ])
        assert code == 1
        assert "solve failed" in capsys.readouterr().err

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

    def test_unwritable_out_exits_2(self, saddle_files, tmp_path, capsys):
        out = tmp_path / "missing" / "z.mtx"
        code = main([
            "solve", "--a", str(saddle_files["a"]), "--b", str(saddle_files["b"]),
            "--c", str(saddle_files["c"]), "--f", str(saddle_files["f"]),
            "--out", str(out),
        ])
        assert code == 2
        assert f"cannot write {out}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("t", ["1e-160", "1e155", "1e160"])
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

    def test_custom_requires_sizes(self, tmp_path):
        assert main(["bench", "--example", "custom", "--out", str(tmp_path / "x.csv")]) == 2

    def test_markdown_format(self, tmp_path):
        out = tmp_path / "bench.md"
        code = main([
            "bench", "--example", "1", "--m", "12", "--n", "6",
            "--t-list", "1", "--methods", "bcgs2", "--format", "md", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("| metric | t=1 |")

"""Self-tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = list(range(1, 101))
    value, pct, n = stats.tail(reversed(xs))
    assert value == 90 and sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100 * 89 / 99) and n == 100


def test_tail_of_eleven_samples_is_the_minimum():
    assert stats.tail([5.0] + [9.0] * 10) == (5.0, 0.0, 11)


def test_tail_without_ten_samples_beyond_falls_back_to_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _table(kappa: str, bcgs2_orth: str) -> str:
    header = ["t", "kappa_M"] + [
        f"{name}_{m}" for m in workloads.METHODS for name in ("orth", "dec", "res", "stab")
    ]
    cells = {"bcgs": ["1e6", "10", "1e4", "1e3"],
             "bcgs2": [bcgs2_orth, bcgs2_orth, bcgs2_orth, "0.5"],
             "householder": ["30", "10", "1", "0.1"]}
    stab = kappa if kappa.startswith("ERR:") else None
    row = ["1", kappa] + [
        c if not (stab and i == 3) else stab
        for m in workloads.METHODS for i, c in enumerate(cells[m])
    ]
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def _op(tmp_path, label, call, cells=3):
    """An op whose call returns CSV text; the check reads it from a file."""
    path = tmp_path / f"{label}.csv"

    def check(text):
        path.write_text(text)
        return workloads.check_table(label, path)

    return workloads.Op(label, cells, call, lambda text: text, check)


def test_fail_share_counts_err_cells_once_and_every_cell_of_a_raising_call(tmp_path):
    def boom():
        raise ValueError("metric kappa must be finite and nonnegative, got inf")

    tally = stats.CellTally()
    runner = run.Runner(tally)
    failing = _op(tmp_path, "err", lambda: _table("ERR:singular", "ERR:rank_deficient"))
    ops = [failing, _op(tmp_path, "ok", lambda: _table("12", "20")),
           _op(tmp_path, "raises", boom)]
    runner.sweep(ops)
    runner.sweep(ops)  # a second sweep over the same inputs adds no cells
    assert (tally.count, tally.base) == (1 + 0 + 3, 9)
    assert tally.share == pytest.approx(4 / 9)
    assert sum(tally.kappa_errs.values()) == 1
    assert (runner.attempted, runner.failed) == (6, 2)
    assert runner.violations == []
    assert runner.errors[0].startswith("raises: ValueError")


def test_band_violation_names_its_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(_table("12", "5e3"))
    out = workloads.check_table("bench seed 7", path)
    assert "bench seed 7 (t=1) bcgs2: res=5000 > 100" in out.violations
    assert any("orth_bcgs=1e+06 < 1000 * orth_bcgs2=5000" in v for v in out.violations)


def test_changed_digest_of_one_input_is_a_violation(tmp_path):
    outputs = iter([_table("12", "20"), _table("12", "21")])
    runner = run.Runner(stats.CellTally())
    op = _op(tmp_path, "flaky", lambda: next(outputs))
    runner.sweep([op, op])
    assert runner.violations == ["flaky: output digest changed between runs of one input"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        tracing.Span(0, "outer", 0.0, 10.0, None, ()),
        tracing.Span(1, "a", 1.0, 3.0, 0, ()),
        tracing.Span(2, "b", 4.0, 8.0, 0, ()),
        tracing.Span(3, "c", 5.0, 6.0, 2, ()),
    ]
    assert tracing.self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_nesting_through_module_lookups_and_restores():
    matrix = SimpleNamespace(matmul=lambda a, b: "product")
    blockgs = SimpleNamespace()
    blockgs.matmul = matrix.matmul
    saddle = SimpleNamespace(bcgs=lambda p: (blockgs.matmul(p, p), blockgs.matmul(p, p)))
    hooks = [h for h in tracing.HOOKS if h.layer in ("blockgs.bcgs", "matrix.matmul")]
    tracer = tracing.Tracer({"saddle": saddle, "blockgs": blockgs}, hooks=hooks,
                            clock=FakeClock())
    tracer.install()
    a = SimpleNamespace(rows=2, cols=3)
    saddle.bcgs(a)
    tracer.uninstall()
    assert saddle.bcgs(a) == ("product", "product")
    assert blockgs.matmul is matrix.matmul
    # clock ticks: bcgs 1..6, matmul 2..3 and 4..5
    m = tracer.layer_metrics()
    assert m["blockgs.bcgs.s"] == 5.0 and m["blockgs.bcgs.self_s"] == 3.0
    assert m["matrix.matmul.calls"] == 2 and m["matrix.matmul.self_s"] == 2.0
    assert m["matrix.matmul.computed_flops"] == 2 * (2.0 * 2 * 3 * 3)
    assert tracer.spans[0].parent == tracer.spans[2].id


def test_missing_hook_target_is_reported_absent_without_crashing():
    bench = SimpleNamespace(render_csv=lambda cfg, rows: "csv")
    tracer = tracing.Tracer({"bench": bench})
    tracer.install()
    assert "bench.spectral_norm" in tracer.absent_targets
    assert "cli.main" in tracer.absent_targets
    assert "cli.main" in tracer.absent_layers
    assert "bench.render_csv" not in tracer.absent_layers
    assert bench.render_csv(None, []) == "csv"
    tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["bench.render_csv.calls"] == 1
    assert metrics["cli.main.calls"] == 0


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)

"""Benchmark harness: build scaled problem families, solve them with the
requested QR paths, and tabulate the stability metrics.

A row lists its metric tasks as it solves: sigma(M), then ||I - Q^T Q||
and ||M - Q R|| of each solved method, each a symmetric eigenproblem of
order l = m + n.  A table with ``_POOL_MIN_ORDER`` <= l <= 796 runs on one
OpenBLAS thread (so its bytes do not depend on the thread count) and
queues the tasks on one worker thread, the metric lane, as each solve
returns: the lane scores a row while the calling thread solves its next
method, since the QR and the eigenvalue routines release the GIL.  After
the last solve the calling thread runs the queued tasks the lane has not
started, from the back.  Other tables run the tasks on the calling thread,
in the same order.  Either way the cells come from the code
``stability.metrics`` runs, and a ``MemoryError`` in a row marks its cells
``ERR:memory``.

CSV output is machine-first (cells as columns, 17 significant digits, so
every numeric cell round-trips exactly); markdown output is eyeball-first
(metrics as rows, one column per scale parameter t).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

from ._openblas import one_thread
from .errors import LinAlgError, OutOfMemoryError
from .householder import _pins_one_thread
from .matrix import DenseMatrix
from .mmio import format17
from .norms import _extreme_singular_values, _nonsingular
from .rng import _checked_seed, mix64
from .saddle import METHODS, assemble, solve_detailed
from .stability import (StabilityReport, _decomposition_defect, _gram_defect, _report,
                        _solution_norm)
from .testgen import hilbert, matrix1, matrix2, ones_rank_one, scale_problem

# Each example's paper sizes (m, n); custom has none.  The order fixes the seeds.
EXAMPLES = {"1": (12, 6), "2": (1000, 500), "3": (3000, 100), "custom": None}
FORMATS = ("csv", "md")
METRIC_NAMES = ("orth", "dec", "res", "stab")
_md_float = "{:.4e}".format  # markdown's eyeball-first cells

# A kappa at or above this is itself precision-limited and gets a "~".
KAPPA_FLAG_LIMIT = 1e14

# Tables of order l = m + n from here up to l = 796 pair their metric
# eigensolves (README's Determinism section has the per-l table).
_POOL_MIN_ORDER = 200


@dataclass(frozen=True)
class BenchConfig:
    """One bench table's inputs, and the one home of their defaults: an m or
    n left out takes the example's paper size from ``EXAMPLES``."""

    example: str = "1"
    m: int | None = None
    n: int | None = None
    s_a: float = 10.0
    s_b: float = 10.0
    s_c: float = 10.0
    t_list: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    seed: int = 0
    methods: tuple[str, ...] = ("bcgs", "bcgs2")
    fmt: str = "csv"

    def __post_init__(self):
        if self.example not in EXAMPLES:
            raise ValueError(f"example must be one of {tuple(EXAMPLES)}, got {self.example!r}")
        m, n = EXAMPLES[self.example] or (None, None)
        object.__setattr__(self, "m", m if self.m is None else self.m)
        object.__setattr__(self, "n", n if self.n is None else self.n)
        if self.m is None or self.n is None:
            raise ValueError(f"example {self.example!r} requires --m and --n")
        if self.m < 1 or self.n < 1 or self.n > self.m:
            raise ValueError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
        if not self.t_list:
            raise ValueError("t_list must be nonempty")
        if not all(0.0 < abs(t) < math.inf for t in self.t_list):
            raise ValueError("every t must be finite and nonzero")
        if not all(0.0 <= s < math.inf for s in (self.s_a, self.s_b, self.s_c)):
            raise ValueError("sA, sB and sC must be finite and nonnegative")
        _checked_seed(self.seed)
        if not self.methods:
            raise ValueError("at least one method is required")
        bad = [meth for meth in self.methods if meth not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {METHODS}")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be {' or '.join(FORMATS)}, got {self.fmt!r}")

    @property
    def ordered_methods(self) -> tuple[str, ...]:
        return tuple(meth for meth in METHODS if meth in self.methods)


@dataclass
class BenchRow:
    """One scale point: kappa(M) plus per-method metric cells.  A cell is a
    float, or an ``ERR:<code>`` string when that computation failed."""

    t: float
    kappa: float | str
    cells: dict[str, dict[str, float | str]] = field(default_factory=dict)

    @property
    def has_errors(self) -> bool:
        if isinstance(self.kappa, str):
            return True
        return any(
            isinstance(v, str) for per_method in self.cells.values() for v in per_method.values()
        )


def _cell_seeds(seed: int, example: str, t_index: int) -> tuple[int, int, int]:
    """Generator seeds for one row, derived from (config seed, example,
    t index) so cells can be evaluated in any order."""
    base = mix64(seed, list(EXAMPLES).index(example))
    row = mix64(base, t_index)
    return mix64(row, 1), mix64(row, 2), mix64(row, 3)


def base_blocks(
    cfg: BenchConfig, t_index: int
) -> tuple[DenseMatrix, DenseMatrix, DenseMatrix, tuple[int, int, int]]:
    """Unscaled (A1, B1, C1) for one row of the configured example, and the
    row's generator seeds (``_cell_seeds``)."""
    seeds = seed_a, seed_b, seed_c = _cell_seeds(cfg.seed, cfg.example, t_index)
    if cfg.example == "1":
        a1, c1 = hilbert(cfg.m), ones_rank_one(cfg.n)
    else:
        a1, c1 = matrix2(cfg.m, cfg.s_a, seed_a), matrix2(cfg.n, cfg.s_c, seed_c)
    return a1, matrix1(cfg.m, cfg.n, cfg.s_b, seed_b), c1, seeds


def run_bench(cfg: BenchConfig) -> list[BenchRow]:
    """Evaluate every (t, method) cell; failures mark cells, never abort.  A
    table that ``_pools`` runs on one OpenBLAS thread and scores its rows on
    the metric lane; the count is restored after it, also on a raise."""
    if not _pools(cfg.m + cfg.n):
        return [_row(cfg, t_index) for t_index in range(len(cfg.t_list))]
    # One pin around the table: a pin inside a row would restore the count
    # while the lane still runs.
    with one_thread():
        return [_row(cfg, t_index, _metric_lane()) for t_index in range(len(cfg.t_list))]


@functools.cache
def _metric_lane():
    """The one worker thread that scores pooled rows, started on first use."""
    from concurrent.futures import ThreadPoolExecutor  # a 7-13 ms import, paid only here

    return ThreadPoolExecutor(max_workers=1)


def _pools(l: int) -> bool:
    """Whether a table of order l scores its rows on the metric lane."""
    return _POOL_MIN_ORDER <= l and _pins_one_thread(l, l)


def _row(cfg: BenchConfig, t_index: int, lane=None) -> BenchRow:
    """One row.  Generation, assembly and the solves run on this thread in
    method order and list the metric tasks as they go: sigma(M) after
    assembly, each method's two defects after its solve.  Each solve's
    return starts the tasks listed so far, so the first solve has the cores
    to itself.  Without a lane they run here, one after another.  With one
    they queue there, so the lane scores while this thread solves the next
    method (both release the GIL in LAPACK), and after the last solve this
    thread takes over the tasks the lane has not started (``_finish``).
    Lane tasks call no name the benchmark tracer hooks.  The cells are
    built here, in method order."""
    t = cfg.t_list[t_index]
    try:
        a1, b1, c1, provenance = base_blocks(cfg, t_index)
        problem = scale_problem(a1, b1, c1, t, provenance)
        del a1, b1, c1  # only the scaled copies are read from here on
        ma = assemble(problem.blocks).array
    except (LinAlgError, MemoryError) as exc:  # no problem or no M, so no metric of the row
        err = f"ERR:{_typed(exc).code}"
        return BenchRow(t=t, kappa=err, cells={m: dict.fromkeys(METRIC_NAMES, err)
                                               for m in cfg.ordered_methods})
    tasks, started = [(_extreme_singular_values, ma)], []
    solves, first = [], None  # first: the bcgs detail, whose factors bcgs2 reorthogonalizes
    try:
        for method in cfg.ordered_methods:
            try:
                detail = solve_detailed(problem.blocks, problem.f, method, first_pass=first)
                solves.append((method, (detail.solution.z, _solution_norm(detail.solution.z))))
            except (LinAlgError, MemoryError) as exc:
                detail = None
                solves.append((method, _typed(exc)))
            first = detail if method == "bcgs" else None
            if detail is not None:  # listed once first no longer holds an earlier Q
                qa, ra = detail.q.array, detail.r.array
                tasks += [(_gram_defect, qa), (_decomposition_defect, ma, qa, ra)]
            started += [_start(task, lane) for task in tasks]
            tasks = []
    finally:  # every started task ends before the row returns or raises
        values = iter(_finish(started, lane))
    sigma = next(values)
    try:  # a singular M has a norm but no kappa, so only kappa and stab fail
        norm_m, sigma_min = _result(sigma)
        row = BenchRow(t=t, kappa=norm_m / _nonsingular(norm_m, sigma_min))
    except LinAlgError as exc:
        row = BenchRow(t=t, kappa=f"ERR:{exc.code}")
    for method, solved in solves:
        if not isinstance(solved, LinAlgError):  # its two defects, in the order listed
            solved = (*solved, next(values), next(values))
        row.cells[method] = _cells(problem, ma, solved, sigma, row.kappa)
    return row


def _start(task, lane=None):
    """Without a lane, the value or ``LinAlgError`` of the ``(fn, *args)``
    task, run here; with one, the task's future there and the task."""
    if lane is None:
        return _attempt(*task)
    return lane.submit(_attempt, *task), task


def _finish(started, lane=None) -> list:
    """The value or ``LinAlgError`` of each task ``_start`` started.  On a lane,
    this thread runs the tasks the lane has not begun, last listed first,
    while the lane finishes its own; every task ends before any other error
    is raised."""
    if lane is None:
        return started
    here = {}
    try:
        for i in reversed(range(len(started))):
            future, task = started[i]
            if future.cancel():
                here[i] = _attempt(*task)
    finally:
        for future, _ in started:
            if not future.cancelled():
                future.exception()  # waits for it
    return [here[i] if i in here else future.result() for i, (future, _) in enumerate(started)]


def _attempt(fn, *args):
    """``fn(*args)``, or the ``LinAlgError`` it raised (a ``MemoryError`` typed)."""
    try:
        return fn(*args)
    except (LinAlgError, MemoryError) as exc:
        return _typed(exc)


def _typed(exc: Exception) -> LinAlgError:
    """``exc``, or an ``OutOfMemoryError`` for a ``MemoryError``."""
    if isinstance(exc, MemoryError):
        return OutOfMemoryError(str(exc) or "out of memory")
    return exc


def _result(value):
    """A task's value, or its ``LinAlgError`` raised."""
    if isinstance(value, LinAlgError):
        raise value
    return value


def _cells(problem, ma, scored, sigma, kappa) -> dict[str, float | str]:
    """One method's metric cells from (z, ||z||, orth, dec) and sigma(M), or in
    all four the first error of sigma(M), the solve (``scored`` itself) or a defect."""
    try:
        norm_m = _result(sigma)[0]
        z, norm_z, orth, dec = _result(scored)
        report = _report(ma, problem.f, z, problem.z_star, norm_z=norm_z, norm_m=norm_m,
                         kappa=kappa if isinstance(kappa, float) else 1.0,
                         orth=_result(orth), dec=_result(dec) / norm_m)
    except LinAlgError as exc:
        return dict.fromkeys(METRIC_NAMES, f"ERR:{exc.code}")
    cells: dict[str, float | str] = {name: getattr(report, name) for name in METRIC_NAMES}
    if isinstance(kappa, str):
        cells["stab"] = kappa  # no condition number, no forward-error ratio
    return cells


def format_cell(v: float | str, fmt=format17) -> str:
    """A cell's text: an ``ERR:<code>`` string as it is, a float through ``fmt``."""
    return v if isinstance(v, str) else fmt(v)


def format_kappa(kappa: float | str, fmt=format17) -> str:
    """kappa's text as ``format_cell`` writes it, with a ``~`` at or above
    ``KAPPA_FLAG_LIMIT``: the one rule for every writer of a kappa."""
    text = format_cell(kappa, fmt)
    return f"~{text}" if isinstance(kappa, float) and kappa >= KAPPA_FLAG_LIMIT else text


def csv_header(cfg: BenchConfig) -> list[str]:
    cols = ["t", "kappa_M"]
    for method in cfg.ordered_methods:
        cols.extend(f"{name}_{method}" for name in METRIC_NAMES)
    return cols


def render_csv(cfg: BenchConfig, rows: list[BenchRow]) -> str:
    lines = [",".join(csv_header(cfg))]
    for row in rows:
        cells = [format17(row.t), format_kappa(row.kappa)]
        for method in cfg.ordered_methods:
            cells.extend(format_cell(row.cells[method][name]) for name in METRIC_NAMES)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_markdown(cfg: BenchConfig, rows: list[BenchRow]) -> str:
    headers = ["metric"] + [f"t={row.t:g}" for row in rows]
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    kappa_cells = [format_kappa(row.kappa, _md_float) for row in rows]
    out.append("| kappa_M | " + " | ".join(kappa_cells) + " |")
    for name in METRIC_NAMES:
        for method in cfg.ordered_methods:
            label = f"{name}_{method.upper()}"
            cells = [format_cell(row.cells[method][name], _md_float) for row in rows]
            out.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def render_report(method: str, report: StabilityReport) -> str:
    """``solve --z-star``'s metrics CSV: its header and the method's one row,
    in the cell texts of a bench CSV."""
    header = ",".join(("method", "kappa_M", *METRIC_NAMES))
    cells = (format17(getattr(report, name)) for name in METRIC_NAMES)
    return f"{header}\n{method},{format_kappa(report.kappa)}," + ",".join(cells) + "\n"


def write_bench(path, cfg: BenchConfig, rows: list[BenchRow]) -> None:
    text = render_csv(cfg, rows) if cfg.fmt == "csv" else render_markdown(cfg, rows)
    Path(path).write_text(text)


def read_bench_csv(path) -> tuple[list[str], list[dict[str, float | str]]]:
    """Parse a bench CSV back into numeric cells (the ``~`` flag on a
    precision-limited kappa is stripped; ``ERR:`` cells stay strings).  An empty file,
    a row with fewer or more cells than the header, or a cell no writer writes (not
    finite, or a ``~`` other than one on kappa_M) raises ``ValueError``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}:1: empty file, no bench CSV header")
    header = lines[0].split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{number}: {len(cells)} cells under a {len(header)}-cell header")
        row = {}
        for column, (key, cell) in enumerate(zip(header, cells), start=1):
            text = cell[1:] if key == "kappa_M" and cell.startswith("~") else cell
            try:
                row[key] = cell if cell.startswith("ERR:") else float(text)
            except ValueError:
                row[key] = math.nan
            if isinstance(row[key], float) and not math.isfinite(row[key]):
                raise ValueError(f"{path}:{number}: column {column} ({key}) holds {cell!r}")
        rows.append(row)
    return header, rows

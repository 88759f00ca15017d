"""Benchmark harness: build scaled problem families, solve them with the
requested QR paths, and tabulate the stability metrics.

CSV output is machine-first (cells as columns, 17 significant digits, so
every numeric cell round-trips exactly); markdown output is eyeball-first
(metrics as rows, one column per scale parameter t).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import LinAlgError
from .matrix import DenseMatrix
from .norms import condition_number, spectral_norm
from .rng import mix64
from .saddle import METHODS, SaddleBlocks, assemble, solve_detailed
from .stability import metrics
from .testgen import GeneratorSpec, hilbert, matrix1, matrix2, ones_rank_one, scale_problem

EXAMPLES = ("1", "2", "3", "custom")
EXAMPLE_DEFAULT_SIZES = {"1": (12, 6), "2": (1000, 500), "3": (3000, 100)}
METRIC_NAMES = ("orth", "dec", "res", "stab")

# Above this kappa is itself precision-limited and gets a "~".
KAPPA_FLAG_LIMIT = 1e14


@dataclass(frozen=True)
class BenchConfig:
    example: str
    m: int
    n: int
    s_a: float = 10.0
    s_b: float = 10.0
    s_c: float = 10.0
    t_list: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    seed: int = 0
    methods: tuple[str, ...] = ("bcgs", "bcgs2")
    fmt: str = "csv"

    def __post_init__(self):
        if self.example not in EXAMPLES:
            raise ValueError(f"example must be one of {EXAMPLES}, got {self.example!r}")
        if self.m < 1 or self.n < 1 or self.n > self.m:
            raise ValueError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
        if not self.t_list:
            raise ValueError("t_list must be nonempty")
        if any(t == 0.0 for t in self.t_list):
            raise ValueError("every t must be nonzero")
        if not self.methods:
            raise ValueError("at least one method is required")
        bad = [meth for meth in self.methods if meth not in METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {METHODS}")
        if self.fmt not in ("csv", "md"):
            raise ValueError(f"format must be csv or md, got {self.fmt!r}")

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
    base = mix64(seed, EXAMPLES.index(example))
    row = mix64(base, t_index)
    return mix64(row, 1), mix64(row, 2), mix64(row, 3)


def base_blocks(
    cfg: BenchConfig, t_index: int
) -> tuple[DenseMatrix, DenseMatrix, DenseMatrix, tuple[GeneratorSpec, ...]]:
    """Unscaled (A1, B1, C1) for one row of the configured example."""
    seed_a, seed_b, seed_c = _cell_seeds(cfg.seed, cfg.example, t_index)
    spec_b = GeneratorSpec("matrix1", m=cfg.m, n=cfg.n, s=cfg.s_b, seed=seed_b)
    if cfg.example == "1":
        spec_a = GeneratorSpec("hilbert", n=cfg.m)
        spec_c = GeneratorSpec("ones_rank_one", n=cfg.n)
        a1 = hilbert(cfg.m)
        c1 = ones_rank_one(cfg.n)
    else:
        spec_a = GeneratorSpec("matrix2", n=cfg.m, s=cfg.s_a, seed=seed_a)
        spec_c = GeneratorSpec("matrix2", n=cfg.n, s=cfg.s_c, seed=seed_c)
        a1 = matrix2(cfg.m, cfg.s_a, seed_a)
        c1 = matrix2(cfg.n, cfg.s_c, seed_c)
    b1 = matrix1(cfg.m, cfg.n, cfg.s_b, seed_b)
    return a1, b1, c1, (spec_a, spec_b, spec_c)


def run_bench(cfg: BenchConfig) -> list[BenchRow]:
    """Evaluate every (t, method) cell; failures mark cells, never abort."""
    rows = []
    for t_index, t in enumerate(cfg.t_list):
        a1, b1, c1, provenance = base_blocks(cfg, t_index)
        try:
            problem = scale_problem(a1, b1, c1, t, provenance)
            m = assemble(problem.blocks)
            norm_m = spectral_norm(m).value
        except LinAlgError as exc:  # no problem or no ||M||, so no metric of the row
            err = f"ERR:{exc.code}"
            cells = {method: dict.fromkeys(METRIC_NAMES, err) for method in cfg.ordered_methods}
            rows.append(BenchRow(t=t, kappa=err, cells=cells))
            continue
        try:
            row = BenchRow(t=t, kappa=condition_number(m).value)
        except LinAlgError as exc:
            row = BenchRow(t=t, kappa=f"ERR:{exc.code}")
        for method in cfg.ordered_methods:
            row.cells[method] = _method_cells(problem, m, norm_m, row.kappa, method)
        rows.append(row)
    return rows


def _method_cells(problem, m, norm_m, kappa, method) -> dict[str, float | str]:
    try:
        detail = solve_detailed(problem.blocks, problem.f, method)
        kappa_value = kappa if isinstance(kappa, float) else 1.0
        report = metrics(
            m,
            detail.q,
            detail.r,
            problem.f,
            detail.solution.z,
            problem.z_star,
            kappa=kappa_value,
            norm_m=norm_m,
        )
    except LinAlgError as exc:
        return dict.fromkeys(METRIC_NAMES, f"ERR:{exc.code}")
    cells: dict[str, float | str] = {
        "orth": report.orth,
        "dec": report.dec,
        "res": report.res,
        "stab": report.stab,
    }
    if isinstance(kappa, str):
        cells["stab"] = kappa  # no condition number, no forward-error ratio
    return cells


def _fmt17(v: float) -> str:
    return format(v, ".17g")


def _kappa_cell(row: BenchRow, spec: str) -> str:
    """kappa in format ``spec``, with a ``~`` when it is precision-limited."""
    if isinstance(row.kappa, str):
        return row.kappa
    text = format(row.kappa, spec)
    return f"~{text}" if row.kappa >= KAPPA_FLAG_LIMIT else text


def csv_header(cfg: BenchConfig) -> list[str]:
    cols = ["t", "kappa_M"]
    for method in cfg.ordered_methods:
        cols.extend(f"{name}_{method}" for name in METRIC_NAMES)
    return cols


def render_csv(cfg: BenchConfig, rows: list[BenchRow]) -> str:
    lines = [",".join(csv_header(cfg))]
    for row in rows:
        cells = [_fmt17(row.t), _kappa_cell(row, ".17g")]
        for method in cfg.ordered_methods:
            for name in METRIC_NAMES:
                v = row.cells[method][name]
                cells.append(v if isinstance(v, str) else _fmt17(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_markdown(cfg: BenchConfig, rows: list[BenchRow]) -> str:
    headers = ["metric"] + [f"t={row.t:g}" for row in rows]
    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]

    def md_value(v: float | str) -> str:
        return v if isinstance(v, str) else f"{v:.4e}"

    kappa_cells = [_kappa_cell(row, ".4e") for row in rows]
    out.append("| kappa_M | " + " | ".join(kappa_cells) + " |")
    for name in METRIC_NAMES:
        for method in cfg.ordered_methods:
            label = f"{name}_{method.upper()}"
            cells = [md_value(row.cells[method][name]) for row in rows]
            out.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(out) + "\n"


def write_bench(path, cfg: BenchConfig, rows: list[BenchRow]) -> None:
    text = render_csv(cfg, rows) if cfg.fmt == "csv" else render_markdown(cfg, rows)
    Path(path).write_text(text)


def read_bench_csv(path) -> tuple[list[str], list[dict[str, float | str]]]:
    """Parse a bench CSV back into numeric cells (the ``~`` flag on a
    precision-limited kappa is stripped; ``ERR:`` cells stay strings)."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        parsed: dict[str, float | str] = {}
        for key, cell in zip(header, line.split(",")):
            if cell.startswith("ERR:"):
                parsed[key] = cell
            else:
                parsed[key] = float(cell.lstrip("~"))
        rows.append(parsed)
    return header, rows

"""The benchmark workloads: inputs made from a seed, the timed operations of
one sweep over them, and the check of each operation's output.

An operation ("op") is one call the timed loop makes and times: a whole
``saddleqr bench`` table for ``table_ex2``, one ``solve_detailed`` call
for ``solve_ex2``.  A sweep runs every op of the workload once.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from saddleqr import bench, cli, saddle
from saddleqr.matrix import MACHINE_EPS

METHODS = ("bcgs", "bcgs2", "householder")

# Acceptance-gate bands (tests/test_acceptance.py criteria 3-5), in eps units.
BCGS2_BANDS = {"res": 1e2, "stab": 1e2, "orth": 1e3}
DEC_BAND = 1e3
ORTH_CONTRAST = 1e3  # orth_bcgs >= 1e3 * orth_bcgs2 (criterion 4)


@dataclass
class Outcome:
    """What an op's output checked to: its failed cells, its rows without
    a kappa estimate and every band violation, each naming its cell."""

    err_cells: int = 0
    kappa_errs: int = 0
    violations: list[str] = field(default_factory=list)


@dataclass
class Op:
    label: str  # names the op's inputs in messages
    cells: int  # (t, method) cells the op computes
    call: Callable[[], object]  # the timed call
    digest: Callable[[object], str]  # sha256 of the call's output
    check: Callable[[object], Outcome]  # runs after the timed region


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_table(label: str, path: str) -> Outcome:
    """Count the failed cells of a bench CSV and check its in-band ones.

    A (t, method) cell failed when its solve or metrics raised, which
    marks all its metrics ``ERR:``.  A row whose kappa estimate failed
    (``ERR:`` kappa_M) also marks every stab cell of the row; that is
    counted per row, not as failed cells.
    """
    out = Outcome()
    for row in bench.read_bench_csv(path)[1]:
        where = f"{label} (t={row['t']:g})"
        out.kappa_errs += isinstance(row["kappa_M"], str)
        for method in METHODS:
            cells = {name: row[f"{name}_{method}"] for name in bench.METRIC_NAMES}
            if isinstance(cells["orth"], str):
                out.err_cells += 1
            bands = dict(BCGS2_BANDS) if method == "bcgs2" else {}
            bands["dec"] = DEC_BAND
            for name, limit in bands.items():
                v = cells[name]
                if isinstance(v, float) and not v <= limit:
                    out.violations.append(f"{where} {method}: {name}={v:.6g} > {limit:g}")
        orth1, orth2 = row["orth_bcgs"], row["orth_bcgs2"]
        if isinstance(orth1, float) and isinstance(orth2, float):
            if not orth1 >= ORTH_CONTRAST * orth2:
                out.violations.append(
                    f"{where}: orth_bcgs={orth1:.6g} < {ORTH_CONTRAST:g} * orth_bcgs2={orth2:.6g}"
                )
    return out


class Workload:
    """A named workload.  ``setup`` builds the inputs (part of set-up time);
    ``sweep`` lists the ops of one pass over them.  ``table_ops`` ops make
    up one table for the ``table_s`` metric."""

    name = ""
    table_ops = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        pass

    def sweep(self) -> list[Op]:
        raise NotImplementedError


def _bench_cli(argv) -> int:
    """``saddleqr bench`` in process; exit 1 (some cells ``ERR:``) is a
    result, any other failure raises."""
    # The "bench: ... rows written" line goes where a user's terminal would.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    if code not in (0, 1):
        raise RuntimeError(f"saddleqr bench exited {code}")
    return code


class TableEx2(Workload):
    """``saddleqr bench --example 2 --m 200 --n 100``, the paper's reduced
    table (l=300), through ``cli.main`` as one-row tables: mostly norm
    estimation and ``stability.metrics``.

    A few seeds need thousands of norm-estimator iterations (one row took
    10 s where its neighbours took 1.5 s), so the run times ten one-row
    tables, each t on two seeds, and ``table_s`` is their median.
    """

    name = "table_ex2"
    m, n = 200, 100
    t_list = (0.01, 0.1, 1.0, 10.0, 100.0)
    seeds = 2
    argv = ["bench", "--example", "2", "--m", str(m), "--n", str(n),
            "--methods", ",".join(METHODS)]

    def params(self):
        first = self.seed * self.seeds
        return {"argv": self.argv, "t_list": self.t_list, "rows_per_table": 1,
                "bench_seeds": [first, first + self.seeds - 1]}

    def sweep(self):
        ops = []
        for k in range(self.seeds):
            table_seed = self.seed * self.seeds + k
            for i, t in enumerate(self.t_list):
                path = os.path.join(self.out_dir, f"ex2-{k}-{i}.csv")
                argv = self.argv + ["--t-list", repr(t), "--seed", str(table_seed),
                                    "--out", path]
                label = f"bench --seed {table_seed} --t-list {t:g}"
                ops.append(Op(label, len(METHODS),
                              lambda argv=argv: _bench_cli(argv),
                              lambda _, path=path: _sha256(Path(path).read_bytes()),
                              lambda _, path=path, label=label: check_table(label, path)))
        return ops


class SolveEx2(Workload):
    """The library path: ``solve_detailed`` at l=600, no norm estimator;
    mostly householder, blockgs and matrix kernels."""

    name = "solve_ex2"
    table_ops = 3 * len(METHODS)
    m, n = 400, 200
    t_list = (0.01, 1.0, 100.0)

    def params(self):
        return {"example": "2", "m": self.m, "n": self.n, "t_list": self.t_list,
                "bench_seed": self.seed, "methods": METHODS}

    def setup(self):
        # Generated the way run_bench generates a table's rows.
        cfg = bench.BenchConfig(example="2", m=self.m, n=self.n, t_list=self.t_list,
                                seed=self.seed)
        self.problems = []
        for i, t in enumerate(self.t_list):
            a1, b1, c1, provenance = bench.base_blocks(cfg, i)
            self.problems.append(bench.scale_problem(a1, b1, c1, t, provenance))
        self._reference = {}

    def sweep(self):
        return [
            Op(f"t={p.t:g} {method}", 1,
               lambda p=p, method=method: saddle.solve_detailed(p.blocks, p.f, method),
               lambda detail: _sha256(detail.solution.z.array.tobytes()),
               lambda detail, p=p, method=method: self._check(p, method, detail))
            for p in self.problems
            for method in METHODS
        ]

    def _reference_norms(self, p) -> tuple[float, float]:
        """||M|| and kappa(M) from a LAPACK SVD, once per problem."""
        if p.t not in self._reference:
            sv = np.linalg.svd(saddle.assemble(p.blocks).array, compute_uv=False)
            self._reference[p.t] = (float(sv[0]), float(sv[0] / sv[-1]))
        return self._reference[p.t]

    def _check(self, p, method, detail) -> Outcome:
        z = detail.solution.z.array
        out = Outcome()
        norm_m, kappa = self._reference_norms(p)
        mat, q, r = detail.matrix.array, detail.q.array, detail.r.array
        norm_z = np.linalg.norm(z)
        ratios = {
            "res": np.linalg.norm(mat @ z - p.f.array) / (MACHINE_EPS * norm_m * norm_z),
            "dec": np.linalg.norm(mat - q @ r, 2) / (MACHINE_EPS * norm_m),
        }
        bands = {"dec": DEC_BAND}
        if method == "bcgs2":
            ratios["orth"] = np.linalg.norm(np.eye(len(z)) - q.T @ q, 2) / MACHINE_EPS
            ratios["stab"] = (
                np.linalg.norm(z - p.z_star.array) / (MACHINE_EPS * kappa * norm_z)
            )
            bands.update(BCGS2_BANDS)
        for name, limit in bands.items():
            if not ratios[name] <= limit:
                out.violations.append(
                    f"t={p.t:g} {method}: {name}={ratios[name]:.6g} > {limit:g}"
                )
        return out


WORKLOADS = {w.name: w for w in (TableEx2, SolveEx2)}

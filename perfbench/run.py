"""saddleqr benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload table_ex2 [--seed 0] [--seconds 40] [--trace 0]

Run from the root of a source checkout; the library is imported from
``src/``.  The untraced run (``--trace 0``) times whole sweeps over the
workload's inputs until the next sweep would pass ``--seconds`` of timed
work, then prints every end-to-end metric with its unit.  The traced run
(``--trace 1``) spends half the time on untraced sweeps, then runs one
sweep with every layer hooked and prints the per-layer metrics and the
tracing overhead.  Every op's output is checked against the acceptance
bands and digested; the last line is a JSON object with the verdict.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
DEFAULT_SEED = 0
SETUP_SAMPLES = 3
END_TO_END = ("setup_s", "table_s", "solves_per_s", "solve_p50_s.bcgs", "solve_p50_s.bcgs2",
              "solve_p50_s.householder", "peak_rss_mb")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def import_program():
    """Import saddleqr from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "saddleqr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no saddleqr sources under {src}")
    sys.path.insert(0, str(src))
    import saddleqr

    if Path(saddleqr.__file__).resolve().parent != src / "saddleqr":
        raise SystemExit(f"perfbench: imported saddleqr from {saddleqr.__file__}, not {src}")
    from saddleqr import (bench, blockgs, cli, householder, matrix, norms, saddle,
                          stability, testgen, triangular)

    return {
        "bench": bench, "blockgs": blockgs, "cli": cli, "householder": householder,
        "matrix": matrix, "norms": norms, "saddle": saddle, "stability": stability,
        "testgen": testgen, "triangular": triangular,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, workload) -> dict:
    import numpy as np

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config's layout differs across numpy versions
        blas_name = "unknown"
    return {
        "commit": commit,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "params": workload.params(),
    }


class Runner:
    """Runs sweeps of a workload's ops, timing each op and checking its
    output outside the timed region."""

    def __init__(self, tally):
        self.tally = tally
        self.digests: dict[str, str] = {}  # first digest per op label
        self.violations: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def sweep(self, ops, before_op=None) -> list[float]:
        times = []
        for op in ops:
            if before_op is not None:
                before_op(op)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                raw = op.call()
            except Exception as exc:  # a failed call fails its cells; the run goes on
                times.append(time.perf_counter() - t0)
                self.failed += 1
                self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                self.tally.record(op.label, op.cells, op.cells)
                continue
            times.append(time.perf_counter() - t0)
            self._check(op, raw)
        return times

    def _check(self, op, raw) -> None:
        digest = op.digest(raw)
        first = self.digests.get(op.label)
        if first is not None and first != digest:
            self.violations.append(f"{op.label}: output digest changed between runs of one input")
        elif first is None:  # first run of this input: full check
            self.digests[op.label] = digest
            outcome = op.check(raw)
            self.tally.record(op.label, op.cells, outcome.err_cells, outcome.kappa_errs)
            self.violations.extend(outcome.violations)

    def timed_sweeps(self, ops, seconds: float) -> list[float]:
        """Whole sweeps while the next one fits in ``seconds`` of op time."""
        times: list[float] = []
        while True:
            sweep = self.sweep(ops)
            times += sweep
            if sum(times) + sum(sweep) > seconds:
                return times

    def combined_digest(self) -> str:
        h = hashlib.sha256()
        for label, digest in self.digests.items():
            h.update(f"{label} {digest}\n".encode())
        return h.hexdigest()


def table_times(workload, op_times) -> list[float]:
    k = workload.table_ops
    return [sum(op_times[i:i + k]) for i in range(0, len(op_times) - k + 1, k)]


def check_digest_store(key: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same sources, workload
    definitions, workload and seed stored in this checkout; store it if
    there is none."""
    path = OUT_DIR / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    earlier = store.setdefault(key, digest)
    if earlier != digest:
        return f"output digest {digest} differs from {earlier} of an earlier run ({key})"
    path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return None


def setup_samples(args, first: float) -> list[float]:
    """Set-up times: this process's, plus fresh processes that set up the
    same workload and exit."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def solve_latencies(probe) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for s in probe.spans:
        if s.ok:
            out.setdefault(s.name.rsplit(".", 1)[1], []).append(s.end - s.start)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_program()
    import stats
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT_DIR))
    workload.setup()
    probe = tracing.Tracer(modules, hooks=[h for h in tracing.HOOKS
                                           if h.layer == "saddle.solve_detailed"])
    probe.install()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = stats.CellTally()
    runner = Runner(tally)
    seconds = args.seconds / 2 if args.trace else args.seconds
    op_times = runner.timed_sweeps(workload.sweep(), seconds)
    probe.uninstall()
    tables = table_times(workload, op_times)
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    absent: list[str] = []
    tail = None

    if args.trace:
        tracer = tracing.Tracer(modules)
        tracer.install()
        try:
            workload.setup()  # traced again for the generation spans
            traced = runner.sweep(workload.sweep(),
                                  before_op=lambda op: tracer.new_cell(op.label))
        finally:
            tracer.uninstall()
        tracer.write_spans(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
        values = tracer.layer_metrics()
        values["bench.fail_share"] = tally.share
        overhead = (statistics.median(table_times(workload, traced)) - statistics.median(tables))
        values["trace.overhead_s"] = overhead
        for name, unit in tracing.per_layer_metrics():
            metrics[name] = (values.get(name, 0.0), unit)
            if any(name.startswith(layer + ".") for layer in tracer.absent_layers):
                notes[name] = "absent"
        absent = tracer.absent_targets
    else:
        latencies = solve_latencies(probe)
        all_solves = [x for xs in latencies.values() for x in xs]
        if not all_solves:
            runner.violations.append("no solve_detailed call completed")
        tail = stats.tail(all_solves) if all_solves else (0.0, 0.0, 0)
        samples = setup_samples(args, setup_s)
        metrics["setup_s"] = (statistics.median(samples), "s")
        notes["setup_s"] = f"median of {len(samples)} set-ups: " + ", ".join(f"{x:.4f}" for x in samples)
        metrics["table_s"] = (statistics.median(tables), "s")
        notes["table_s"] = f"median of {len(tables)} tables"
        # Throughput at the median table: a few seeds need thousands of
        # norm-estimator iterations, and a plain mean would follow them.
        per_table = len(all_solves) / len(tables)
        metrics["solves_per_s"] = (per_table / statistics.median(tables), "1/s")
        notes["solves_per_s"] = (f"{len(all_solves)} solves in {len(tables)} tables, "
                                 f"{sum(op_times):.3f} s timed")
        for method in workloads.METHODS:
            xs = latencies.get(method, [])
            metrics[f"solve_p50_s.{method}"] = (statistics.median(xs) if xs else 0.0, "s")
            notes[f"solve_p50_s.{method}"] = f"n={len(xs)}"
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics = {name: metrics[name] for name in END_TO_END}

    prov = provenance(args, workload)
    digest = runner.combined_digest()
    workloads_sha = hashlib.sha256(Path(workloads.__file__).read_bytes()).hexdigest()
    mismatch = check_digest_store(
        f"{prov['src_sha256'][:16]}:{workloads_sha[:16]}:{workload.name}:{args.seed}", digest)
    if mismatch:
        runner.violations.append(mismatch)
    correct = not runner.violations

    print(f"saddleqr benchmark: workload {workload.name}, seed {args.seed} "
          f"(default {DEFAULT_SEED}), {args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    if tail is not None:
        # Printed, not bounded: on table_ex1 it is the p99.6 of ~3000 solves
        # of 2 ms, set by 1-2 s bursts of host noise.
        print(f"solve_tail_s {tail[0]:.6g} s  (p{tail[1]:.2f} of {tail[2]} solves; not bounded)")
    print(f"fail_share {tally.share:.6g} ratio  ({tally.count}/{tally.base} cells; "
          f"{sum(tally.kappa_errs.values())} rows without a kappa estimate)")
    print(f"digest {digest}  ({len(runner.digests)} outputs)")
    for target in absent:
        print(f"absent {target}")
    for err in runner.errors:
        print(f"failed call: {err}")
    for v in runner.violations:
        print(f"check failed: {v}")
    print("check " + ("ok" if correct else "FAILED"))

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": prov, "digest": digest,
                    "fail_share": [tally.count, tally.base], "solve_tail": tail, "notes": notes,
                    "op_times": op_times,
                    "violations": runner.violations, "errors": runner.errors}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the benchmark and the paper-scale tables of one checkout in BENCH_<N>.json.

    python3 scripts/bench_record.py --number N [--source DIR]

The checkout at ``--source`` (default: this repository) is copied, without
``.git``, ``perfbench/out`` and caches, into a fresh temporary directory,
so every record starts from the same state of ``perfbench/out``.  There:

* ``perfbench/run.py`` runs as it stands, one fresh process per workload
  (``table_ex2`` and ``solve_ex2``, seed 0, ``--seconds 40 --trace 0``), and each
  ``perfbench/out/result-*.json`` it writes is copied into the record
  whole: provenance, digest, every metric and every op time;
* each paper-scale one-row table (``saddleqr bench --example 2|3
  --t-list 1 --methods bcgs,bcgs2``) runs in three fresh processes,
  and the record keeps each wall time, exit code, CSV sha256, minor page
  faults (``ru_minflt``) and peak RSS (``ru_maxrss``, in MB), and the
  median time.

The record is written to BENCH_<N>.json at the root of this repository,
N being the number of the change whose code it measures.  BLAS threads are
as the environment sets them; each perfbench result's provenance records
them, with the versions and the sha256 of ``src/`` that ran.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table_ex2", "solve_ex2")
SECONDS = 40  # perfbench --seconds per workload
RUNS = 3  # fresh processes per table
TABLES = {
    "example2_t1": ["--example", "2", "--t-list", "1", "--methods", "bcgs,bcgs2"],
    "example3_t1": ["--example", "3", "--t-list", "1", "--methods", "bcgs,bcgs2"],
}
# "out" is perfbench/out, which holds earlier results and digests.
NOT_COPIED = shutil.ignore_patterns(".git", "out", "__pycache__", ".pytest_cache")


def source_commit(source: Path) -> dict:
    """HEAD of ``source`` and whether its tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(source), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "tracked_changes": bool(status)}


def run_perfbench(copy: Path, workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_record: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads((copy / "perfbench" / "out" / f"result-{workload}-seed0-trace0.json")
                      .read_text())


def run_table(copy: Path, args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    seconds, codes, digests, faults, rss_mb = [], [], [], [], []
    for i in range(RUNS):
        out = copy / f"table-{i}.csv"
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "saddleqr.cli", "bench", *args,
                               "--out", str(out)], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
            # wait4 reaps the child with its own rusage; Popen's exit then
            # finds no child to wait for, which it accepts.
            _, status, usage = os.wait4(proc.pid, 0)
        seconds.append(time.perf_counter() - start)
        codes.append(os.waitstatus_to_exitcode(status))
        faults.append(usage.ru_minflt)
        rss_mb.append(usage.ru_maxrss / 1024)
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None)
    return {"args": args, "median_s": statistics.median(seconds), "seconds": seconds,
            "exit_codes": codes, "sha256": digests, "minflt": faults, "maxrss_mb": rss_mb}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--number", type=int, required=True, help="N of BENCH_<N>.json")
    p.add_argument("--source", type=Path, default=ROOT, help="checkout to measure")
    args = p.parse_args(argv)
    if not (args.source / "perfbench" / "run.py").is_file():
        p.error("need a --source holding perfbench/run.py")
    record = {"number": args.number, "source": source_commit(args.source.resolve()),
              "perfbench": {}, "tables": {}}
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(args.source, copy, ignore=NOT_COPIED)
        for workload in WORKLOADS:
            record["perfbench"][workload] = run_perfbench(copy, workload)
        for name, table_args in TABLES.items():
            record["tables"][name] = run_table(copy, table_args)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    for name, table in record["tables"].items():
        print(f"{name}: median {table['median_s']:.2f} s, minflt {table['minflt']}, "
              f"maxrss {[round(x, 1) for x in table['maxrss_mb']]} MB, "
              f"sha256 {sorted(set(table['sha256']))}")
    for workload, result in record["perfbench"].items():
        metrics = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload}: {metrics}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

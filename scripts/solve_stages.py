"""Print per-stage medians of one solve of each method, at l = 300 and l = 600.

    PYTHONPATH=src python3 scripts/solve_stages.py [--calls 40] [--seed 0] [L ...]

Each L is a system size l = 3 n (default: 300 and 600).  The system is the
example-2 row at t = 1 with m = 2 n, as the benchmark's workloads build it.
One round solves it with ``bcgs``, with ``bcgs2`` on that bcgs pass (as a
``bench`` row does) and with ``householder``, stage by stage through the
library's own kernels:

* copies -- the fresh F-order Q and zero R (bcgs), the F copy of M
  (householder), the copies of the first pass's factors (bcgs2);
* panel QRs -- ``householder._qr_in_place`` on each panel;
* projection -- S = Q1^T M2 and Y = M2 - Q1 S into Q2;
* reorthogonalization -- ``blockgs._reorthogonalize``;
* wrap -- Q and R turned into row-major ``DenseMatrix``;
* Q^T f, then the back-substitution with both triangular kernels:
  ``dtrsv`` through ``triangular._back_substitute_arr`` and the column
  sweep ``triangular._column_sweep``, run in alternating order.

The methods rotate their order from round to round, so slow drift of the
machine spreads over every stage alike; the medians of one run compare
stages and kernels with each other, not with another run.  The script
checks that its R and z are the bytes ``saddle.solve_detailed`` gives
in the warm-up round.
BLAS threads are as the environment sets them.
"""

import argparse
import collections
import contextlib
import statistics
import sys
import time

import numpy as np

from saddleqr import blockgs, saddle
from saddleqr.bench import BenchConfig, base_blocks
from saddleqr.householder import _qr_in_place
from saddleqr.matrix import DenseMatrix
from saddleqr.testgen import scale_problem
from saddleqr.triangular import _back_substitute_arr, _column_sweep

METHODS = ("bcgs", "bcgs2", "householder")
STAGES = ("copies", "panel QRs", "projection", "reorthogonalization", "wrap", "Q^T f",
          "dtrsv", "column sweep")
KERNELS = {"dtrsv": _back_substitute_arr, "column sweep": _column_sweep}


class Stopwatch:
    """Seconds per stage, summed within a round."""

    def __init__(self):
        self.seconds = collections.Counter()

    @contextlib.contextmanager
    def __call__(self, stage):
        start = time.perf_counter()
        yield
        self.seconds[stage] += time.perf_counter() - start


def _factors(method, xa, m, first, clock):
    """(Q, R) of one method, each stage timed on ``clock``."""
    if method == "householder":
        with clock("copies"):
            q = np.array(xa, order="F")
        with clock("panel QRs"):
            r = _qr_in_place(q)
        return q, r
    if method == "bcgs2":
        with clock("copies"):
            q, r = np.array(first[0].array, order="F"), np.array(first[1].array)
    else:
        with clock("copies"):
            q, r = np.empty(xa.shape, order="F"), np.zeros(xa.shape)
            q[:, :m] = xa[:, :m]
        with clock("panel QRs"):
            r[:m, :m] = _qr_in_place(q[:, :m])
        with clock("projection"):
            r[:m, m:] = q[:, :m].T @ xa[:, m:]
            np.subtract(xa[:, m:], q[:, :m] @ r[:m, m:], out=q[:, m:])
        with clock("panel QRs"):
            r[m:, m:] = _qr_in_place(q[:, m:])
    if method == "bcgs2":
        with clock("reorthogonalization"):
            blockgs._reorthogonalize(q, r, m)
    return q, r


def solve_round(problem, order, flip, check):
    """One solve per method in ``order``: {method: Stopwatch}.  With ``check``,
    each R and z must be the bytes of ``saddle.solve_detailed``."""
    blocks, f = problem.blocks, problem.f.array
    xa, m = blocks.matrix.array, blocks.m
    out, first, refs = {}, None, {}
    for method in order:
        clock = out[method] = Stopwatch()
        q, r = _factors(method, xa, m, first, clock)
        with clock("wrap"):
            q, r = DenseMatrix._wrap(q), DenseMatrix._wrap(r)
        with clock("Q^T f"):
            g = q.array.T @ f
        zs = {}
        for kernel in sorted(KERNELS, reverse=flip):
            with clock(kernel):
                zs[kernel] = KERNELS[kernel](r.array, g)
        if method == "bcgs":
            first = (q, r)
        if not check:
            continue
        ref = refs[method] = saddle.solve_detailed(blocks, problem.f, method,
                                                   first_pass=refs.get("bcgs"))
        if r.array.tobytes() != ref.r.array.tobytes() or (
                zs["dtrsv"].tobytes() != ref.solution.z.array.tobytes()):
            raise AssertionError(f"{method}: the staged solve left the library's bytes")
    return out


def measure(l, calls, seed):
    """{method: {stage: median seconds}} over ``calls`` rounds after one warm-up."""
    n = l // 3
    cfg = BenchConfig(example="2", m=2 * n, n=n, t_list=(1.0,), seed=seed)
    a1, b1, c1, provenance = base_blocks(cfg, 0)
    problem = scale_problem(a1, b1, c1, 1.0, provenance)
    times = {method: collections.defaultdict(list) for method in METHODS}
    for call in range(calls + 1):
        # bcgs always runs before bcgs2, whose solve starts from its pass.
        order = (METHODS, ("householder", "bcgs", "bcgs2"), ("bcgs", "householder", "bcgs2"))[
            call % 3]
        rounds = solve_round(problem, order, flip=call % 2 == 1, check=call == 0)
        if call:
            for method, clock in rounds.items():
                for stage, seconds in clock.seconds.items():
                    times[method][stage].append(seconds)
    return {method: {stage: statistics.median(v) for stage, v in per.items()}
            for method, per in times.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--calls", type=int, default=40, help="timed rounds per size")
    p.add_argument("--seed", type=int, default=0, help="bench seed of the example-2 system")
    p.add_argument("sizes", nargs="*", type=int, default=(300, 600), help="l, a multiple of 3")
    args = p.parse_args(argv)
    if args.calls < 1 or any(l < 3 or l % 3 for l in args.sizes):
        p.error("need --calls >= 1 and every l a positive multiple of 3")
    for l in args.sizes:
        medians = measure(l, args.calls, args.seed)
        print(f"\nl = {l} ({args.calls} rounds, medians in ms; bcgs2 on the bcgs pass)\n")
        print(f"| {'stage':<21} | " + " | ".join(f"{m:>11}" for m in METHODS) + " |")
        print("|" + "-" * 23 + "|" + "-------------|" * len(METHODS))
        for stage in STAGES:
            cells = [medians[m].get(stage) for m in METHODS]
            text = [f"{v * 1e3:11.3f}" if v is not None else f"{'-':>11}" for v in cells]
            print(f"| {stage:<21} | " + " | ".join(text) + " |")
        for kernel in KERNELS:
            totals = [sum(v for s, v in medians[m].items() if s not in KERNELS or s == kernel)
                      for m in METHODS]
            label = f"sum with {kernel}"
            print(f"| {label:<21} | " + " | ".join(f"{v * 1e3:11.3f}" for v in totals) + " |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

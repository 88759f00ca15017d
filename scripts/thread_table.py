"""Print README's one/two-thread tables: of the thin-QR kernel, and of a bench row.

    PYTHONPATH=src python3 scripts/thread_table.py [--calls 15] [SHAPE ...]
    PYTHONPATH=src python3 scripts/thread_table.py --rows [--calls 15] [L ...]

Each SHAPE is ``LxK`` (default: the README table's shapes).  For every
shape the script times LAPACK ``dgeqrf`` + ``dorgqr`` on an F-order copy of
seeded normals, at one and at two OpenBLAS threads, alternating which count
runs first on each call, and prints the medians as a markdown table with
the flop count 4 l k^2 - 4 k^3 / 3 and whether ``householder`` pins the
shape to one thread.  The pin itself is bypassed, so both counts run at
every shape.  Set ``householder._ONE_THREAD_FLOPS`` from where the
one-thread column stops winning.

With ``--rows``, each L is an order l = m + n (default: the README row
table's), and the script times ``run_bench`` on one-row example-2 tables
(m = round(2 l / 3), n = l - m, t = 1, all three methods, a new seed per
row), pooled (one OpenBLAS thread, metric tasks on the lane beside the
solves) and sequential (the caller's thread count), alternating which
mode runs first; each timed row follows an untimed one of its mode.  It
prints the medians and whether ``bench._pools`` pools the order; set
``bench._POOL_MIN_ORDER`` from where the pooled column starts winning.

Both modes need numpy's bundled OpenBLAS; run them on an otherwise idle
machine.
"""

import argparse
import statistics
import sys
import time

import numpy as np

from saddleqr import _openblas, bench, householder
from saddleqr.rng import standard_normals

SHAPES = ("300x200", "600x400", "3100x100", "1000x600", "1500x500", "1700x500", "2000x500",
          "1200x700", "1400x700", "1200x800", "1600x800", "1500x1000", "2000x1000", "4000x500",
          "6000x300", "10000x150", "200x200", "300x300", "400x400", "500x500", "600x600",
          "700x700", "800x800", "900x900", "1000x1000")
ORDERS = (18, 30, 60, 99, 150, 201, 300, 450, 600, 796)


def _factor_seconds(x: np.ndarray) -> float:
    """Seconds of dgeqrf + dorgqr on an F-order copy of ``x`` (the copy untimed)."""
    a, tau = np.array(x, order="F"), np.empty(x.shape[1])
    start = time.perf_counter()
    _openblas.dgeqrf(a, tau)
    _openblas.dorgqr(a, tau)
    return time.perf_counter() - start


def measure(l: int, k: int, calls: int) -> tuple[float, float]:
    """Median seconds at one and at two threads over ``calls`` interleaved calls each."""
    lib = _openblas.library()
    x = standard_normals(l, l * k).reshape(l, k)
    before = lib.scipy_openblas_get_num_threads64_()
    times = {1: [], 2: []}
    try:
        for call in range(calls + 1):  # call 0 warms both counts up and is dropped
            for threads in ((1, 2) if call % 2 else (2, 1)):
                lib.scipy_openblas_set_num_threads64_(threads)
                seconds = _factor_seconds(x)
                if call:
                    times[threads].append(seconds)
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    return statistics.median(times[1]), statistics.median(times[2])


def _row_seconds(l: int, seed: int, pooled: bool) -> float:
    """Seconds of one one-row example-2 ``run_bench`` table of order l."""
    m = round(2 * l / 3)
    cfg = bench.BenchConfig(example="2", m=m, n=l - m, t_list=(1.0,), seed=seed,
                            methods=("bcgs", "bcgs2", "householder"))
    saved = bench._POOL_MIN_ORDER
    bench._POOL_MIN_ORDER = 0 if pooled else l + 1
    try:
        start = time.perf_counter()
        bench.run_bench(cfg)
        return time.perf_counter() - start
    finally:
        bench._POOL_MIN_ORDER = saved


def rows_table(orders, calls: int) -> None:
    print("| l   | pooled     | sequential | p/s   | pooled by the rule |")
    print("|-----|------------|------------|-------|--------------------|")
    for l in orders:
        times = {True: [], False: []}
        for call in range(calls):
            for pooled in ((True, False) if call % 2 else (False, True)):
                # An untimed row first, so the timed one starts as inside a table of its own
                # mode: after a two-thread call OpenBLAS's idle helper thread spins a while.
                _row_seconds(l, 2 * call, pooled)
                times[pooled].append(_row_seconds(l, 2 * call + 1, pooled))
        pooled, sequential = statistics.median(times[True]), statistics.median(times[False])
        rule = "yes" if bench._pools(l) else "no"
        print(f"| {l:<3} | {pooled * 1e3:7.1f} ms | {sequential * 1e3:7.1f} ms "
              f"| {pooled / sequential:.2f}  | {rule:<18} |", flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--calls", type=int, default=15, help="timed calls per thread count or mode")
    p.add_argument("--rows", action="store_true", help="time bench rows, pooled and sequential")
    p.add_argument("sizes", nargs="*",
                   help="LxK panel shapes, l >= k (default: the QR table's); with --rows, "
                        "orders l (default: the row table's)")
    args = p.parse_args(argv)
    if _openblas.library() is None:
        print("thread_table: numpy bundles no OpenBLAS, so there is no thread count to set",
              file=sys.stderr)
        return 2
    if args.rows:
        rows_table([int(v) for v in args.sizes] or ORDERS, args.calls)
        return 0
    print("| panel      | flops  | one thread | two threads | 1/2   | pinned |")
    print("|------------|--------|------------|-------------|-------|--------|")
    for shape in args.sizes or SHAPES:
        l, k = (int(v) for v in shape.split("x"))
        one, two = measure(l, k, args.calls)
        flops = f"{4 * l * k * k - 4 * k**3 / 3:.1e}".replace("e+0", "e").replace("e+", "e")
        pinned = "yes" if householder._pins_one_thread(l, k) else "no"
        print(f"| {shape:<10} | {flops:<6} | {one * 1e3:7.1f} ms | {two * 1e3:8.1f} ms  "
              f"| {one / two:.2f}  | {pinned:<6} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

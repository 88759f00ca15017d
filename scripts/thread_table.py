"""Print README's one/two-thread table of the thin-QR kernel.

    PYTHONPATH=src python3 scripts/thread_table.py [--calls 15] [SHAPE ...]

Each SHAPE is ``LxK`` (default: the README table's shapes).  For every
shape the script times LAPACK ``dgeqrf`` + ``dorgqr`` on an F-order copy of
seeded normals, at one and at two OpenBLAS threads, alternating which count
runs first on each call, and prints the medians as a markdown table with
the flop count 4 l k^2 - 4 k^3 / 3 and whether ``householder`` pins the
shape to one thread.  The pin itself is bypassed, so both counts run at
every shape.  It needs numpy's bundled OpenBLAS; run it on an otherwise
idle machine, and set ``householder._ONE_THREAD_FLOPS`` from where the
one-thread column stops winning.
"""

import argparse
import statistics
import sys
import time

import numpy as np
from numpy.linalg import lapack_lite

from saddleqr import householder
from saddleqr.rng import standard_normals

SHAPES = ("300x200", "600x400", "3100x100", "1000x600", "1500x500", "1700x500", "2000x500",
          "1200x700", "1400x700", "1200x800", "1600x800", "1500x1000", "2000x1000", "200x200",
          "300x300", "400x400", "500x500", "600x600", "700x700", "800x800", "900x900",
          "1000x1000")


def _factor_seconds(x: np.ndarray) -> float:
    """Seconds of dgeqrf + dorgqr on an F-order copy of ``x`` (the copy untimed)."""
    a = np.array(x, order="F")
    l, k = a.shape
    tau, at = np.empty(k), a.T
    start = time.perf_counter()
    householder._lapack(lapack_lite.dgeqrf, l, k, at, l, tau)
    householder._lapack(lapack_lite.dorgqr, l, k, k, at, l, tau)
    return time.perf_counter() - start


def measure(l: int, k: int, calls: int) -> tuple[float, float]:
    """Median seconds at one and at two threads over ``calls`` interleaved calls each."""
    lib = householder._openblas()
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--calls", type=int, default=15, help="timed calls per thread count")
    p.add_argument("shapes", nargs="*", default=SHAPES, help="LxK panel shapes, l >= k")
    args = p.parse_args(argv)
    if householder._openblas() is None:
        print("thread_table: numpy bundles no OpenBLAS, so there is no thread count to set",
              file=sys.stderr)
        return 2
    print("| panel      | flops  | one thread | two threads | 1/2   | pinned |")
    print("|------------|--------|------------|-------------|-------|--------|")
    for shape in args.shapes:
        l, k = (int(v) for v in shape.split("x"))
        one, two = measure(l, k, args.calls)
        flops = f"{4 * l * k * k - 4 * k**3 / 3:.1e}".replace("e+0", "e").replace("e+", "e")
        pinned = "yes" if householder._pins_one_thread(l, k) else "no"
        print(f"| {shape:<10} | {flops:<6} | {one * 1e3:7.1f} ms | {two * 1e3:8.1f} ms  "
              f"| {one / two:.2f}  | {pinned:<6} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

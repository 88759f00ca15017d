"""Command-line interface: generate test matrices, solve saddle systems
from Matrix Market files, and run the stability benchmark.

Exit codes: 0 all requested computations succeeded; 1 some computation
failed (singular / rank-deficient cells, reported inline, or a ``gen`` or
``solve`` that ran out of memory); 2 configuration or I/O error (a bad
flag or input file before any computation, an unwritable output after
it), or a ``solve`` system that breaks the hypotheses A SPD, C PSD, B of
full column rank.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (EXAMPLES, FORMATS, BenchConfig, format_kappa, render_report, run_bench,
                    write_bench)
from .errors import DimensionError, LinAlgError
from .mmio import MatrixMarketError, read_matrix, read_vector, write_matrix, write_vector
from .norms import condition_number
from .rng import _checked_seed
from .saddle import METHODS, SaddleBlocks, ValidationReport, solve_detailed, validate
from .stability import metrics
from .testgen import GENERATOR_KINDS, hilbert, matrix1, matrix2, ones_rank_one


# glibc's mallopt parameters (malloc.h), and the value both thresholds take.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_BYTES = 256 << 20


@functools.cache
def _keep_freed_pages() -> None:
    """Set glibc's mmap and trim thresholds to 256 MiB for this process,
    so that freed heap pages stay for the next array of their size instead
    of faulting in afresh (README, "The CLI's heap").  Setting one alone
    stops glibc adjusting the other, which faults more than the defaults,
    so the trim threshold follows only a successful mmap threshold.  The
    settings are process-wide, so only the CLI makes them.  Without glibc
    or its ``mallopt`` this does nothing."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _KEEP_BYTES) == 1:
        mallopt(_M_TRIM_THRESHOLD, _KEEP_BYTES)


def _fail(msg: str, code: int) -> int:
    print(f"saddleqr: error: {msg}", file=sys.stderr)
    return code


def _generate(args):
    """The matrix of ``gen``'s flags; the seed is checked for every kind."""
    m, n, kind = args.m, args.n, args.kind
    _checked_seed(args.seed)
    if kind == "matrix1":
        if m is None or n is None:
            raise ValueError("matrix1 requires both --m and --n")
        return matrix1(m, n, args.s, args.seed)
    if m is not None and n is not None and m != n:
        raise ValueError(f"{kind} is square, but --m {m} and --n {n} differ")
    size = n if n is not None else m  # square kinds take either flag
    if size is None:
        raise ValueError(f"{kind} requires a size (--n or --m)")
    if kind == "matrix2":
        return matrix2(size, args.s, args.seed)
    return hilbert(size) if kind == "hilbert" else ones_rank_one(size)


def cmd_gen(args) -> int:
    try:
        matrix = _generate(args)
    except (ValueError, DimensionError) as exc:
        return _fail(str(exc), 2)
    try:
        write_matrix(args.out, matrix)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", 2)
    try:
        print(f"kappa: {format_kappa(condition_number(matrix), '{:.6e}'.format)}")
    except LinAlgError as exc:  # singular, overflowed or not converged
        print(f"kappa: {exc}")
    return 0


def _read_file(reader, path: str):
    try:
        return reader(path)
    except FileNotFoundError:
        raise MatrixMarketError(f"cannot read {path}: file not found") from None
    except OSError as exc:
        raise MatrixMarketError(f"cannot read {path}: {exc}") from None


def _broken_hypotheses(report: ValidationReport) -> list[str]:
    """One line per failed certificate of ``validate``, with its diagnostic."""
    broken = []
    if not report.a_spd:
        broken.append(
            "A is not positive definite (its Cholesky breaks down)" if report.a_symmetric
            else "A is not symmetric"
        )
    if not report.c_psd:
        broken.append(
            f"C is not symmetric positive semidefinite (lambda_min {report.c_min_eigenvalue:.3e})"
        )
    if not report.b_full_rank:
        broken.append("B is rank-deficient or wider than tall")
    return broken


def cmd_solve(args) -> int:
    if args.report is not None and args.z_star is None:
        return _fail("--report requires --z-star", 2)
    try:
        a = _read_file(read_matrix, args.a)
        b = _read_file(read_matrix, args.b)
        c = _read_file(read_matrix, args.c)
        f = _read_file(read_vector, args.f)
        z_star = _read_file(read_vector, args.z_star) if args.z_star else None
        blocks = SaddleBlocks(a=a, b=b, c=c)
        del a, b, c  # the blocks hold them once, in M
        vectors = (("right-hand side", args.f, f), ("known solution", args.z_star, z_star))
        for what, path, v in vectors:
            if v is not None and len(v) != blocks.l:
                raise DimensionError(f"{what} {path} has length {len(v)}, system size {blocks.l}")
    except (MatrixMarketError, ValueError, DimensionError) as exc:
        return _fail(str(exc), 2)

    try:
        broken = _broken_hypotheses(validate(blocks))
    except LinAlgError as exc:
        return _fail(f"validate failed: {exc}", 1)
    if broken:
        return _fail("; ".join(broken), 2)
    try:
        detail = solve_detailed(blocks, f, args.method)
    except LinAlgError as exc:
        return _fail(f"solve failed: {exc}", 1)
    try:
        write_vector(args.out, detail.solution.z)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", 2)
    print(f"solution written to {args.out} (method {args.method})")

    if z_star is not None:
        try:
            report = metrics(detail.matrix, detail.q, detail.r, f, detail.solution.z, z_star)
        except LinAlgError as exc:
            return _fail(f"metrics failed: {exc}", 1)
        text = render_report(args.method, report)
        print(text, end="")
        if args.report is not None:
            try:
                Path(args.report).write_text(text)
            except OSError as exc:
                return _fail(f"cannot write {args.report}: {exc}", 2)
    return 0


def cmd_bench(args) -> int:
    """The table of the fields given as flags; ``BenchConfig`` fills in the rest."""
    given = {f.name: getattr(args, f.name) for f in fields(BenchConfig) if hasattr(args, f.name)}
    try:
        for name, parse in (("t_list", float), ("methods", str.strip)):  # the comma lists
            if name in given:
                given[name] = tuple(map(parse, given[name].split(",")))
        cfg = BenchConfig(**given)
    except ValueError as exc:
        return _fail(str(exc), 2)

    rows = run_bench(cfg)
    try:
        write_bench(args.out, cfg, rows)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", 2)
    failed = sum(1 for row in rows if row.has_errors)
    print(f"bench: {len(rows)} rows written to {args.out}" + (f", {failed} with errors" if failed else ""))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddleqr",
        description="Block Gram-Schmidt QR solvers and stability benchmarks "
        "for symmetric saddle-point systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a test matrix as a Matrix Market file")
    gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    gen.add_argument("--m", type=int, help="row count (matrix1) or size (square kinds)")
    gen.add_argument("--n", type=int, help="column count (matrix1) or size (square kinds)")
    gen.add_argument("--s", type=float, default=0.0, help="decade exponent, kappa ~ 10^s")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve a saddle system from Matrix Market files")
    solve.add_argument("--a", required=True, help="path to the A block")
    solve.add_argument("--b", required=True, help="path to the B block")
    solve.add_argument("--c", required=True, help="path to the C block")
    solve.add_argument("--f", required=True, help="path to the right-hand side")
    solve.add_argument("--method", default="bcgs2", choices=METHODS)
    solve.add_argument("--out", required=True, help="path for the solution vector")
    solve.add_argument("--z-star", dest="z_star", help="known solution, enables metrics")
    solve.add_argument("--report", help="path for a one-row metrics CSV (needs --z-star)")
    solve.set_defaults(func=cmd_solve)

    # A bench flag left out is not set, so BenchConfig's default applies.
    bench = sub.add_parser("bench", help="run the stability benchmark table",
                           argument_default=argparse.SUPPRESS)
    bench.add_argument("--example", choices=EXAMPLES)
    bench.add_argument("--m", type=int)
    bench.add_argument("--n", type=int)
    bench.add_argument("--sA", dest="s_a", metavar="SA", type=float)
    bench.add_argument("--sB", dest="s_b", metavar="SB", type=float)
    bench.add_argument("--sC", dest="s_c", metavar="SC", type=float)
    bench.add_argument("--t-list", dest="t_list")
    bench.add_argument("--seed", type=int)
    bench.add_argument("--methods")
    bench.add_argument("--format", dest="fmt", choices=FORMATS)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    _keep_freed_pages()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:  # bench rows mark their cells ERR:memory instead
        return _fail(f"{args.command}: out of memory" + (f" ({exc})" if str(exc) else ""), 1)


if __name__ == "__main__":
    sys.exit(main())

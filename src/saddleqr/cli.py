"""Command-line interface: generate test matrices, solve saddle systems
from Matrix Market files, and run the stability benchmark.

Exit codes: 0 all requested computations succeeded; 1 some computation
failed (singular / rank-deficient cells, reported inline); 2 configuration
or I/O failure before any computation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    EXAMPLE_DEFAULT_SIZES,
    EXAMPLES,
    BenchConfig,
    run_bench,
    write_bench,
)
from .errors import DimensionError, LinAlgError
from .matrix import DenseMatrix
from .mmio import MatrixMarketError, read_matrix, read_vector, write_matrix, write_vector
from .norms import condition_number
from .saddle import METHODS, SaddleBlocks, solve_detailed
from .stability import metrics
from .testgen import GENERATOR_KINDS, GeneratorSpec


def _fail(msg: str, code: int) -> int:
    print(f"saddleqr: error: {msg}", file=sys.stderr)
    return code


def _gen_spec(args) -> GeneratorSpec:
    if args.kind == "matrix1":
        if args.m is None or args.n is None:
            raise ValueError("matrix1 requires both --m and --n")
        return GeneratorSpec("matrix1", m=args.m, n=args.n, s=args.s, seed=args.seed)
    size = args.n if args.n is not None else args.m  # square kinds take either flag
    if size is None:
        raise ValueError(f"{args.kind} requires a size (--n or --m)")
    return GeneratorSpec(args.kind, n=size, s=args.s, seed=args.seed)


def cmd_gen(args) -> int:
    try:
        spec = _gen_spec(args)
        matrix = spec.generate()
    except (ValueError, DimensionError) as exc:
        return _fail(str(exc), 2)
    try:
        write_matrix(args.out, matrix)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", 2)
    try:
        kappa = condition_number(matrix).value
        print(f"kappa: {kappa:.6e}")
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
        if len(f) != blocks.l:
            raise DimensionError(
                f"right-hand side {args.f} has length {len(f)}, system size is {blocks.l}"
            )
        if z_star is not None and len(z_star) != blocks.l:
            raise DimensionError(
                f"known solution {args.z_star} has length {len(z_star)}, "
                f"system size is {blocks.l}"
            )
    except (MatrixMarketError, ValueError, DimensionError) as exc:
        return _fail(str(exc), 2)

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
        line = (
            f"{args.method},{report.kappa:.17g},{report.orth:.17g},"
            f"{report.dec:.17g},{report.res:.17g},{report.stab:.17g}"
        )
        print("method,kappa_M,orth,dec,res,stab")
        print(line)
        if args.report is not None:
            try:
                Path(args.report).write_text("method,kappa_M,orth,dec,res,stab\n" + line + "\n")
            except OSError as exc:
                return _fail(f"cannot write {args.report}: {exc}", 2)
    return 0


def cmd_bench(args) -> int:
    try:
        if args.example == "custom":
            if args.m is None or args.n is None:
                raise ValueError("example 'custom' requires --m and --n")
            m, n = args.m, args.n
        else:
            default_m, default_n = EXAMPLE_DEFAULT_SIZES[args.example]
            m = args.m if args.m is not None else default_m
            n = args.n if args.n is not None else default_n
        t_list = tuple(float(tok) for tok in args.t_list.split(","))
        methods = tuple(tok.strip() for tok in args.methods.split(","))
        cfg = BenchConfig(
            example=args.example,
            m=m,
            n=n,
            s_a=args.sA,
            s_b=args.sB,
            s_c=args.sC,
            t_list=t_list,
            seed=args.seed,
            methods=methods,
            fmt=args.format,
        )
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

    bench = sub.add_parser("bench", help="run the stability benchmark table")
    bench.add_argument("--example", default="1", choices=EXAMPLES)
    bench.add_argument("--m", type=int)
    bench.add_argument("--n", type=int)
    bench.add_argument("--sA", type=float, default=10.0)
    bench.add_argument("--sB", type=float, default=10.0)
    bench.add_argument("--sC", type=float, default=10.0)
    bench.add_argument("--t-list", dest="t_list", default="0.01,0.1,1,10,100")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--methods", default="bcgs,bcgs2")
    bench.add_argument("--format", default="csv", choices=("csv", "md"))
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

import ast
import importlib
import importlib.util
import math
import re
import sys
from pathlib import Path

import saddleqr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "saddleqr"
TRACING = ROOT / "perfbench" / "tracing.py"

# Test oracles that live in tests/_oracles.py, not in the shipped package.
ORACLES = ("jacobi_eigenvalues", "exact_singular_values", "exact_spectral_norm",
           "q_by_column_application")

# The entry points the README documents; everything else is imported from
# its module (saddleqr.testgen, saddleqr.mmio, ...).
PUBLIC = [
    "DegenerateSolutionError", "DenseMatrix", "DimensionError",
    "HypothesisError", "LinAlgError", "NonConvergedError", "NonFiniteError",
    "RankDeficientError", "SaddleBlocks", "SingularMatrixError", "Vector",
    "ZeroDiagonalError", "assemble", "backward_certificate", "bcgs", "bcgs2",
    "condition_number", "lemma1_bounds", "mat_vec", "matmul",
    "matrix1", "matrix2", "metrics", "qr_residuals", "scale_problem",
    "solve_detailed", "spectral_norm", "thin_householder_qr", "validate", "vector_norm",
]


def test_public_names_resolve():
    missing = [name for name in saddleqr.__all__ if not hasattr(saddleqr, name)]
    assert missing == []


def test_all_is_the_documented_entry_points_sorted():
    assert saddleqr.__all__ == sorted(PUBLIC)
    assert len(PUBLIC) == 30


def test_error_family_is_public():
    errors = [getattr(saddleqr, name) for name in PUBLIC if name.endswith("Error")]
    assert len(errors) == 9
    assert all(issubclass(cls, saddleqr.LinAlgError) for cls in errors)


def test_test_oracles_not_exported():
    assert not set(ORACLES) & (set(saddleqr.__all__) | set(dir(saddleqr)))


def test_readme_states_the_source_line_count():
    # The line count is the north-star size of the package; README's Layout
    # section states it, and this keeps the statement true.
    stated = re.search(r"`src/saddleqr/` holds ([\d,]+) lines", (ROOT / "README.md").read_text())
    counted = sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == counted


# Public top-level functions and classes of src/saddleqr that no module,
# script, benchmark file or acceptance test uses, each mapped to the reason
# it stays.
UNCALLED = {
    "matmul": "the north star names its bitwise match with the naive triple loop, "
              "which tests/test_matrix.py pins",
}


def test_every_public_definition_has_a_caller():
    # A public def or class that only its own unit tests call is surface kept
    # for nothing; a name counts as used wherever it appears as a name, an
    # attribute or an import alias, outside the package's __init__.  perfbench's
    # own tests are not callers: a test double there can reuse a name.
    modules = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    defined = {node.name for path in modules for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    callers = [*modules, *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    used = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    assert all(UNCALLED.values()), "every allowed name states its reason"
    assert defined - used == set(UNCALLED)


def test_every_module_level_import_is_used():
    # A name a module imports and never reads is dead weight a refactor left
    # behind; __init__.py imports only to re-export, so it is exempt.
    unused = []
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = [(alias.asname or alias.name).split(".", 1)[0]
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []


def test_readme_library_snippet_runs(capsys):
    # The ```python block under README's "## Library" heading, run as written.
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    numbers = [float(word) for word in capsys.readouterr().out.split()]
    assert len(numbers) == 4 and all(0.0 <= v < math.inf for v in numbers), numbers


def test_readme_names_imported_from_their_modules_resolve():
    # README's Library section lists the names "imported from its module",
    # each clause ending in "from `saddleqr.<module>`"; a name removed from
    # its module cannot stay listed there.
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    listed = re.search(r"The rest is imported from its module:(.*?)\.\s", library, re.S).group(1)
    clauses = re.findall(r"(.*?)from\s+`saddleqr\.(\w+)`", listed, re.S)
    assert [module for _, module in clauses] == ["testgen", "stability", "mmio"]
    missing = [f"{module}.{name}" for names, module in clauses
               for name in re.findall(r"`(\w+)`", names)
               if not hasattr(importlib.import_module(f"saddleqr.{module}"), name)]
    assert missing == []


def test_every_openblas_binding_lives_in_the_boundary_module():
    # Only _openblas.py names OpenBLAS symbols, passes array pointers or names
    # lapack_lite, the QR's fallback (cli.py's one other ctypes binding is
    # glibc's mallopt, which takes none).  householder.py leaves the choice
    # of door and the panel's layout check to the bindings, and no
    # numpy.linalg.qr path sits beside the QR.
    from numpy.linalg import lapack_lite

    missing = [name for name in ("dgeqrf", "dorgqr") if not hasattr(lapack_lite, name)]
    assert not missing, f"the QR's fallback needs numpy.linalg.lapack_lite.{missing}, absent here"
    for path in SRC.glob("*.py"):
        text, tree = path.read_text(), ast.parse(path.read_text())
        if path.name != "_openblas.py":
            assert "scipy_" not in text and "ctypes.data" not in text, path.name
            imports = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                       for alias in node.names}
            assert "ctypes" not in imports or path.name == "cli.py", path.name
        if path.name == "householder.py":
            names = {getattr(node, "name", None) or getattr(node, "attr", None)
                     or getattr(node, "id", None) for node in ast.walk(tree)}
            assert not names & {"_lapack", "library", "flags"}, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "lapack_lite":
                assert path.name == "_openblas.py", path.name
            elif isinstance(node, ast.Call):
                assert not ast.unparse(node.func).endswith("linalg.qr"), path.name
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                assert "qr" not in {alias.name for alias in node.names}, path.name


def _tracer_targets():
    """Every ``Hook`` target and ``CELL_T_TARGET`` named in the benchmark's tracer."""
    targets = []
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Hook":
            targets += ast.literal_eval(node.args[1])
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "CELL_T_TARGET":
            targets.append(ast.literal_eval(node.value))
    return targets


def test_benchmark_hook_targets_resolve():
    # The tracer wraps the module attributes its callers look up and skips a
    # missing one silently, so a refactor that drops another name would turn
    # a benchmark layer to 0 without failing the traced run.
    unresolved = set()
    for target in _tracer_targets():
        module, attr = target.split(".", 1)
        if not callable(getattr(importlib.import_module(f"saddleqr.{module}"), attr, None)):
            unresolved.add(target)
    assert unresolved == {
        "blockgs.matmul", "stability.matmul", "testgen.matmul",
        "saddle.mat_vec", "stability.mat_vec",
        "bench.spectral_norm", "stability.spectral_norm",
        "bench.condition_number", "stability.condition_number",
        # Retired by the raw-array solve path: the block panels call the raw
        # QR kernel, and solve_detailed the raw back-substitution.
        "blockgs.thin_householder_qr", "saddle.back_substitute",
        # Retired by the pooled metric phase: run_bench scores its cells with
        # stability's shared report code, not through metrics.
        "bench.metrics",
    }


def _traced_row(monkeypatch, m, n):
    """One three-method example-2 row of order m + n run with every tracer hook
    installed, and the tracer."""
    from saddleqr.bench import BenchConfig, run_bench

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    names = ("bench", "blockgs", "cli", "householder", "matrix", "norms", "saddle",
             "stability", "testgen", "triangular")
    modules = {name: importlib.import_module(f"saddleqr.{name}") for name in names}
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        tracer.new_cell("row")
        (row,) = run_bench(BenchConfig(example="2", m=m, n=n, t_list=(1.0,),
                                       methods=("bcgs", "bcgs2", "householder")))
    finally:
        tracer.uninstall()
    assert not row.has_errors
    solved = {s.name for s in tracer.spans if s.name.startswith("saddle.solve_detailed.")}
    assert solved == {f"saddle.solve_detailed.{meth}" for meth in ("bcgs", "bcgs2", "householder")}
    return tracer


def test_traced_bench_row_completes_with_every_hook(monkeypatch):
    # A flop hook reads .rows and .cols of its first argument, so a raw array
    # reaching a hooked name would crash the traced benchmark run.
    _traced_row(monkeypatch, 20, 10)


def test_traced_pooled_bench_row_completes_with_every_hook(monkeypatch):
    # A pooled row's tasks call no hooked name: the tracer keeps one span
    # stack, so every span it records opened and closed on this thread.
    from saddleqr.bench import _pools

    assert _pools(134 + 67)
    tracer = _traced_row(monkeypatch, 134, 67)
    assert {s.name for s in tracer.spans} >= {"testgen.generate", "saddle.assemble"}
    assert not any(s.name.startswith("stability.metrics") for s in tracer.spans)

"""Per-layer tracing from outside the library.

Each hook replaces the module attribute a caller looks up (for example
``saddleqr.blockgs.matmul``, the name ``bcgs`` calls) with a wrapper that
records a span: layer name, start, end, parent span and the workload cell
(op, t, method) it ran in.  Spans stay in memory; ``write_spans`` stores
them when the run ends.  A target that a later refactor removed is
reported as absent and skipped, so the traced run never crashes on it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

METHODS = ("bcgs", "bcgs2", "householder")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: tuple
    ok: bool = True


def _method_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("method")


def _matmul_flops(args, kwargs):
    a, b = args[0], args[1]
    return 2.0 * a.rows * a.cols * b.cols


def _mat_vec_flops(args, kwargs):
    return 2.0 * args[0].rows * args[0].cols


def _qr_flops(args, kwargs):
    # Householder reflectors for R plus accumulating the thin Q:
    # 2 l k^2 - 2/3 k^3 each.
    l, k = args[0].rows, args[0].cols
    return 4.0 * l * k * k - 4.0 / 3.0 * k**3


@dataclass(frozen=True)
class Hook:
    """One layer: the attributes to wrap and what to record per call.

    ``per_method`` layers are named ``<layer>.<method>`` after the method
    of the current cell.  ``flops`` computes the call's flop count from
    its argument shapes (computed, not counted by hardware).
    """

    layer: str
    targets: tuple[str, ...]
    per_method: bool = False
    flops: Callable | None = None


HOOKS = (
    # The generators as run_bench calls them.
    Hook("testgen.generate",
         ("bench.matrix1", "bench.matrix2", "bench.hilbert", "bench.ones_rank_one")),
    Hook("saddle.assemble", ("bench.assemble", "saddle.assemble", "testgen.assemble")),
    Hook("saddle.solve_detailed", ("bench.solve_detailed", "saddle.solve_detailed"),
         per_method=True),
    # householder.thin_householder_qr is the name inverse_norm imports at call time.
    Hook("householder.thin_householder_qr",
         ("saddle.thin_householder_qr", "blockgs.thin_householder_qr",
          "testgen.thin_householder_qr", "householder.thin_householder_qr"),
         flops=_qr_flops),
    Hook("blockgs.bcgs", ("saddle.bcgs",)),
    Hook("blockgs.bcgs2", ("saddle.bcgs2",)),
    Hook("matrix.matmul", ("blockgs.matmul", "stability.matmul", "testgen.matmul"),
         flops=_matmul_flops),
    Hook("matrix.mat_vec", ("saddle.mat_vec", "stability.mat_vec", "testgen.mat_vec"),
         flops=_mat_vec_flops),
    Hook("triangular.back_substitute", ("saddle.back_substitute",)),
    # norms.spectral_norm is the name condition_number calls.
    Hook("norms.spectral_norm",
         ("bench.spectral_norm", "stability.spectral_norm", "norms.spectral_norm")),
    Hook("norms.condition_number", ("bench.condition_number", "stability.condition_number")),
    Hook("stability.metrics", ("bench.metrics",), per_method=True),
    Hook("bench.render_csv", ("bench.render_csv",)),
    Hook("cli.main", ("cli.main",)),
)

# run_bench calls base_blocks once per row; the hook records the row's t in
# the current cell and opens no span.
CELL_T_TARGET = "bench.base_blocks"

NORM_LAYERS = ("norms.spectral_norm", "norms.condition_number")


def layer_names() -> list[str]:
    names = []
    for hook in HOOKS:
        if hook.per_method:
            names.extend(f"{hook.layer}.{m}" for m in METHODS)
        else:
            names.append(hook.layer)
    return names


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, as (name, unit)."""
    out = []
    for name in layer_names():
        out += [(f"{name}.s", "s"), (f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    for hook in HOOKS:
        if hook.flops is not None:
            out += [(f"{hook.layer}.computed_flops", "flop"),
                    (f"{hook.layer}.computed_gflops", "Gflop/s")]
    out += [(f"{layer}.iters", "count") for layer in NORM_LAYERS]
    out += [("norms.estimates", "count"), ("norms.nonconverged", "count")]
    out += [(f"stability.{q}_max.{m}", "eps") for q in ("res", "orth") for m in METHODS]
    out += [("bench.fail_share", "ratio"), ("trace.overhead_s", "s")]
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time covered by its child spans.

    Children of one span never overlap (one thread runs them in turn), so
    the covered time is the sum of the children's durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


class Tracer:
    """Installs the hooks on the given modules, records spans and counts,
    and restores the original attributes on ``uninstall``.

    ``modules`` maps the short module names used in ``HOOKS`` ("bench",
    "saddle", ...) to module objects.
    """

    def __init__(self, modules: dict, hooks=HOOKS, clock=time.perf_counter):
        self.modules = modules
        self.hooks = hooks
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.cell: dict = {}
        self.absent_targets: list[str] = []
        self.absent_layers: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def new_cell(self, op: str) -> None:
        """Start the workload cell of the next op; hooks fill in t and method."""
        self.cell = {"op": op}

    def _resolve(self, target: str):
        mod_name, attr = target.split(".", 1)
        module = self.modules.get(mod_name)
        if module is None or not callable(getattr(module, attr, None)):
            self.absent_targets.append(target)
            return None, attr
        return module, attr

    def _patch(self, module, attr, wrapper_factory):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_factory(original))

    def install(self) -> None:
        for hook in self.hooks:
            found = 0
            for target in hook.targets:
                module, attr = self._resolve(target)
                if module is not None:
                    self._patch(module, attr, lambda fn, h=hook: self._wrap(h, fn))
                    found += 1
            if not found:
                self.absent_layers.append(hook.layer)
        module, attr = self._resolve(CELL_T_TARGET)
        if module is not None:
            self._patch(module, attr, self._wrap_cell_t)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap_cell_t(self, fn):
        def base_blocks(cfg, t_index, *args, **kwargs):
            self.cell["t"] = cfg.t_list[t_index]
            self.cell.pop("method", None)
            return fn(cfg, t_index, *args, **kwargs)

        return base_blocks

    def _wrap(self, hook: Hook, fn):
        def traced(*args, **kwargs):
            name = hook.layer
            if hook.per_method:
                if hook.layer == "saddle.solve_detailed":
                    self.cell["method"] = _method_arg(args, kwargs)
                name = f"{hook.layer}.{self.cell.get('method')}"
            if hook.flops is not None:
                self.counts[f"{hook.layer}.computed_flops"] += hook.flops(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            cell = (self.cell.get("op"), self.cell.get("t"), self.cell.get("method"))
            self._stack.append(span_id)
            start = self.clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, cell, ok))
            self._record_result(hook.layer, result)
            return result

        return traced

    def _record_result(self, layer: str, result) -> None:
        if layer in NORM_LAYERS:
            self.counts[f"{layer}.iters"] += result.iterations
            self.counts["norms.estimates"] += 1
            self.counts["norms.nonconverged"] += not result.converged
        elif layer == "stability.metrics":
            method = self.cell.get("method")
            for q in ("res", "orth"):
                key = f"stability.{q}_max.{method}"
                self.counts[key] = max(self.counts[key], getattr(result, q))

    def layer_metrics(self) -> dict[str, float]:
        """Totals per layer over every recorded span, plus the counts.
        Metrics of layers that were never called read 0."""
        values: dict[str, float] = defaultdict(float)
        selfs = self_times(self.spans)
        for s in self.spans:
            values[f"{s.name}.s"] += s.end - s.start
            values[f"{s.name}.self_s"] += selfs[s.id]
            values[f"{s.name}.calls"] += 1
        values.update(self.counts)
        for hook in self.hooks:
            if hook.flops is not None and values[f"{hook.layer}.self_s"] > 0.0:
                values[f"{hook.layer}.computed_gflops"] = (
                    values[f"{hook.layer}.computed_flops"] / values[f"{hook.layer}.self_s"] / 1e9
                )
        return values

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.cell[0], "t": s.cell[1], "method": s.cell[2],
                    "ok": s.ok,
                }) + "\n")

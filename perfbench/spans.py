"""Outside-in span tracer for gphier's public calls.

Every traced call is wrapped where the calling module binds it (for example
``gphier.solver.apply_btilde``, the name the solver's Picard loop looks up),
so the package itself is not modified.  Spans live in memory as
(id, name, group, start, end, parent, op, error) records and are written
out once, when the run ends.  The wrappers are installed for the duration of a
``with Tracer(...)`` block and the original bindings are restored on exit.

Each span belongs to a *group*: the per-layer metric it feeds.  A group's
time counts only spans that are not nested inside another span of the same
group, so a ``level_diff_norm`` called from ``weighted_distance`` is not
counted twice.
"""

from __future__ import annotations

import importlib
import json
import os
import time

# (module, attribute, group).  The layer of a group is its first component.
WRAPS = [
    ("gphier.solver", "solve", "solver.solve"),
    ("gphier.cli", "solve", "solver.solve"),
    ("gphier.cli", "duhamel_bound_rows", "solver.expansion"),
    ("gphier.solver", "apply_btilde", "operators.collapse"),
    ("gphier.verify", "collapse_b1", "operators.collapse_dense"),
    ("gphier.verify", "collapse_b2", "operators.collapse_dense"),
    ("gphier.solver", "apply_free_phase", "operators.free_phase"),
    ("gphier.solver", "free_evolve", "operators.free_phase"),
    ("gphier.kernels", "random_test_kernel", "kernels.draw"),
    ("gphier.verify", "random_test_kernel", "kernels.draw"),
    ("gphier.kernels", "hermitize", "kernels.hermitize"),
    ("gphier.kernels", "symmetrize", "kernels.symmetrize"),
    ("gphier.solver", "hermiticity_defect", "kernels.defects"),
    ("gphier.solver", "symmetry_defect", "kernels.defects"),
    ("gphier.solver", "as_dense", "kernels.materialize"),
    ("gphier.cli", "save_kernel", "kernels.io"),
    ("gphier.cli", "save_wavefunction", "kernels.io"),
    ("gphier.solver", "weighted_distance", "norms.distance"),
    ("gphier.solver", "level_diff_norm", "norms.distance"),
    ("gphier.norms", "level_diff_norm", "norms.distance"),
    ("gphier.solver", "sobolev_norm", "norms.norm"),
    ("gphier.solver", "weighted_norm", "norms.norm"),
    ("gphier.verify", "sobolev_norm", "norms.norm"),
    ("gphier.cli", "sobolev_norm", "norms.norm"),
    ("gphier.nls", "factorized_trajectory", "nls.oracle"),
    ("gphier.nls", "solve_nodes", "nls.oracle"),
    ("gphier.cli", "factorized_trajectory", "nls.oracle"),
    ("gphier.nls", "compare_marginals", "nls.compare"),
    ("gphier.cli", "compare_marginals", "nls.compare"),
    ("gphier.verify", "estimate_collapse_battery", "verify.battery"),
    ("gphier.cli", "estimate_collapse_constant", "verify.battery"),
    ("gphier.cli", "preflight", "cli.preflight"),
    ("gphier.cli", "write_csv", "cli.artifacts"),
    ("gphier.cli", "write_json", "cli.artifacts"),
    ("gphier.cli", "main", "cli.main"),
]

LAYERS = ("kernels", "operators", "norms", "solver", "nls", "verify", "cli")
SETUP_OP = "inputs"  # operation id of the traced input generation

# Per-layer metrics: name -> unit.  "s" is summed span time and
# "self_s" span time minus the time child spans cover; byte figures are
# computed from array sizes (or, for kernels.io, file sizes); the shares
# are percent of the traced run_s.
PER_LAYER = {
    "operators.collapse_factorized.calls": "count",
    "operators.collapse_factorized.s": "s",
    "operators.collapse_dense.calls": "count",
    "operators.collapse_dense.s": "s",
    "operators.collapse_dense.bytes_computed": "B",
    "operators.free_phase.calls": "count",
    "operators.free_phase.s": "s",
    "solver.solve.calls": "count",
    "solver.solve.s": "s",
    "solver.solve.self_s": "s",
    "solver.solve.child_s": "s",
    "solver.iterations": "count",
    "solver.planned_bytes": "B",
    "solver.plan_over_peak": "ratio",
    "solver.expansion.s": "s",
    "kernels.draw.calls": "count",
    "kernels.draw.s": "s",
    "kernels.hermitize.s": "s",
    "kernels.symmetrize.s": "s",
    "kernels.defects.s": "s",
    "kernels.materialize.s": "s",
    "kernels.io.s": "s",
    "kernels.io.bytes": "B",
    "norms.distance.calls": "count",
    "norms.distance.s": "s",
    "norms.norm.calls": "count",
    "norms.norm.s": "s",
    "nls.oracle.s": "s",
    "nls.compare.s": "s",
    "verify.battery.s": "s",
    "cli.preflight.s": "s",
    "cli.preflight_bytes": "B",
    "cli.preflight_over_peak": "ratio",
    "cli.artifacts.s": "s",
    "cli.self_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "share.collapse_factorized": "%",
    "share.free_phase": "%",
    "share.distance": "%",
    "share.collapse_dense": "%",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.tracemalloc_peak_bytes": "B",
}


class Span:
    __slots__ = ("id", "name", "group", "start", "end", "parent", "op", "error",
                 "extra")

    def __init__(self, id, name, group, start, parent, op):
        self.id, self.name, self.group = id, name, group
        self.start, self.end = start, None
        self.parent, self.op = parent, op
        self.error = None
        self.extra = {}

    @property
    def layer(self) -> str:
        return self.group.split(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "group": self.group,
                "start": self.start, "end": self.end, "parent": self.parent,
                "op": self.op, "error": self.error, **self.extra}


def _dense_collapse_bytes(kernel, offset: int) -> int:
    """Input plus output kernel bytes of one dense collapse (computed, not measured)."""
    grid = kernel.grid
    return grid.kernel_bytes(kernel.k) + grid.kernel_bytes(kernel.k - offset)


class Tracer:
    """Installs the wrappers in WRAPS and collects spans while active."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._saved = []
        # Exceptions already counted per layer, kept alive so ids stay unique.
        self._seen_errors = {layer: {} for layer in LAYERS}
        self._factorized_type = None

    # -- installation -----------------------------------------------------------

    def __enter__(self):
        # Import every module before wrapping any name, so that no module
        # binds an already wrapped function at its own import.
        modules = {modname: importlib.import_module(modname) for modname, _, _ in WRAPS}
        self._factorized_type = importlib.import_module("gphier.kernels").FactorizedKernel
        for modname, attr, group in WRAPS:
            module = modules[modname]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{modname}.{attr}", group))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, group):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, group)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, exc)
                raise
            tracer.annotate(span, args, result)
            tracer.close(span)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- spans --------------------------------------------------------------------

    def operation(self, op_id: str, group: str = "op"):
        """Context manager: a root span grouping every span of one operation.

        Input generation is traced under group "setup" so that its draws
        are counted without entering the operations' run time.
        """
        return _Operation(self, op_id, group)

    def open(self, name, group) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, group, time.perf_counter(), parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, exc: BaseException | None = None):
        span.end = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            span.error = type(exc).__name__
            seen = self._seen_errors.get(span.layer)
            if seen is not None and id(exc) not in seen:
                seen[id(exc)] = exc
                span.extra["counted_error"] = True

    def annotate(self, span: Span, args, result):
        """Attach the counts a group reports beside its time."""
        if span.group == "operators.collapse":
            kernel, interaction = args[0], args[1]
            if isinstance(kernel, self._factorized_type):
                span.group = "operators.collapse_factorized"
            else:
                span.group = "operators.collapse_dense"
                span.extra["bytes"] = _dense_collapse_bytes(
                    kernel, interaction.source_offset)
        elif span.group == "operators.collapse_dense":
            span.extra["bytes"] = _dense_collapse_bytes(args[1], 1)
        elif span.group == "solver.solve":
            report = result[1]
            span.extra["iterations"] = report.iterations
            span.extra["planned_bytes"] = report.planned_bytes
        elif span.group == "kernels.io":
            span.extra["bytes"] = os.path.getsize(args[0])
        elif span.group == "cli.preflight":
            span.extra["bytes"] = result["total_bytes"]

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


class _Operation:
    def __init__(self, tracer: Tracer, op_id: str, group: str):
        self.tracer, self.op_id, self.group = tracer, op_id, group

    def __enter__(self):
        self.tracer._op = self.op_id
        self.span = self.tracer.open(f"{self.group}:{self.op_id}", self.group)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.span, exc)
        self.tracer._op = None
        return False


# -- aggregation ----------------------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover.

    gphier runs on one thread, so the children of a span follow one another
    without overlapping and the time they cover is the sum of their
    durations.
    """
    covered = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - covered.get(s.id, 0.0) for s in spans}


def _outermost(spans, group):
    """Spans of a group that have no ancestor in the same group."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.group != group:
            continue
        p = s.parent
        while p is not None and by_id[p].group != group:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


# Metrics read from the repetition that ran under tracemalloc; every other
# per-layer metric is read from the spans-only repetitions.
MEMORY_METRICS = ("solver.plan_over_peak", "cli.preflight_over_peak",
                  "trace.tracemalloc_peak_bytes")


def layer_metrics(spans, traced_peak_bytes: int | None) -> dict:
    """Per-layer metric values from one traced repetition's spans.

    ``traced_peak_bytes`` is the tracemalloc peak of the operations, or None
    when the repetition ran without tracemalloc; MEMORY_METRICS are then
    left out.
    """
    selfs = self_times(spans)

    def calls(group):
        return len(_outermost(spans, group))

    def secs(group):
        return sum(s.duration for s in _outermost(spans, group))

    def summed(group, key):
        return sum(s.extra.get(key, 0) for s in _outermost(spans, group))

    solves = _outermost(spans, "solver.solve")
    solve_s = sum(s.duration for s in solves)
    solve_self = sum(selfs[s.id] for s in solves)
    planned = max((s.extra["planned_bytes"] for s in solves), default=0)
    preflight = max((s.extra["bytes"] for s in _outermost(spans, "cli.preflight")),
                    default=0)
    mains = _outermost(spans, "cli.main")
    run_s = sum(s.duration for s in spans if s.group == "op")

    op_spans = [s for s in spans if s.op != SETUP_OP]

    def share(group):
        in_ops = sum(s.duration for s in _outermost(op_spans, group))
        return 100.0 * in_ops / run_s if run_s > 0 else 0.0

    m = {
        "operators.collapse_factorized.calls": calls("operators.collapse_factorized"),
        "operators.collapse_factorized.s": secs("operators.collapse_factorized"),
        "operators.collapse_dense.calls": calls("operators.collapse_dense"),
        "operators.collapse_dense.s": secs("operators.collapse_dense"),
        "operators.collapse_dense.bytes_computed":
            summed("operators.collapse_dense", "bytes"),
        "operators.free_phase.calls": calls("operators.free_phase"),
        "operators.free_phase.s": secs("operators.free_phase"),
        "solver.solve.calls": len(solves),
        "solver.solve.s": solve_s,
        "solver.solve.self_s": solve_self,
        "solver.solve.child_s": solve_s - solve_self,
        "solver.iterations": summed("solver.solve", "iterations"),
        "solver.planned_bytes": planned,
        "solver.expansion.s": secs("solver.expansion"),
        "kernels.draw.calls": calls("kernels.draw"),
        "kernels.draw.s": secs("kernels.draw"),
        "kernels.hermitize.s": secs("kernels.hermitize"),
        "kernels.symmetrize.s": secs("kernels.symmetrize"),
        "kernels.defects.s": secs("kernels.defects"),
        "kernels.materialize.s": secs("kernels.materialize"),
        "kernels.io.s": secs("kernels.io"),
        "kernels.io.bytes": summed("kernels.io", "bytes"),
        "norms.distance.calls": calls("norms.distance"),
        "norms.distance.s": secs("norms.distance"),
        "norms.norm.calls": calls("norms.norm"),
        "norms.norm.s": secs("norms.norm"),
        "nls.oracle.s": secs("nls.oracle"),
        "nls.compare.s": secs("nls.compare"),
        "verify.battery.s": secs("verify.battery"),
        "cli.preflight.s": secs("cli.preflight"),
        "cli.preflight_bytes": preflight,
        "cli.artifacts.s": secs("cli.artifacts"),
        "cli.self_s": sum(selfs[s.id] for s in mains),
        "share.collapse_factorized": share("operators.collapse_factorized"),
        "share.free_phase": share("operators.free_phase"),
        "share.distance": share("norms.distance"),
        "share.collapse_dense": share("operators.collapse_dense"),
        "trace.run_s": run_s,
        "trace.spans": len(spans),
    }
    if traced_peak_bytes is not None:
        peak = max(traced_peak_bytes, 1)
        m["solver.plan_over_peak"] = planned / peak
        m["cli.preflight_over_peak"] = preflight / peak
        m["trace.tracemalloc_peak_bytes"] = traced_peak_bytes
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(
            1 for s in spans if s.extra.get("counted_error") and s.layer == layer)
    return m

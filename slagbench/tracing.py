"""Span tracing of slag_lab layers, installed from the benchmark's side.

A wrapper replaces each traced function wherever a caller looks its name
up: the defining module, every `slag_lab.*` module that imported it, and
the benchmark's own workload module. Spans (name, start, end, parent,
operation id) stay in memory until the run ends. A layer's time is the
self time of its spans: duration minus the time covered by child spans.
Nothing inside the program changes, and everything is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, function, layer metric that collects the span's self time)
TRACED = (
    ("slag_lab.solver", "solve_dirichlet", "solver.self_s"),
    ("scipy.sparse.linalg", "spsolve", "solver.linear_solve_s"),
    ("slag_lab.operators", "slag_linearization_batch", "operators.linearization_s"),
    ("slag_lab.operators", "slag_linearization", "operators.linearization_s"),
    ("slag_lab.hessians", "hessian_matrices", "hessians.stencil_s"),
    ("slag_lab.hessians", "gradient_field", "hessians.stencil_s"),
    ("slag_lab.hessians", "taylor_tensors", "hessians.jet_s"),
    ("slag_lab.hessians", "fourth_order_jet", "hessians.jet_s"),
    ("slag_lab.hessians", "directional_convexity_deficit", "hessians.convexity_s"),
    ("slag_lab.hessians", "semiconvexity_modulus", "hessians.convexity_s"),
    ("slag_lab.eigen", "eigvals_sym", "eigen.eigvals_s"),
    ("slag_lab.conjugate", "sup_with_argmax", "conjugate.sup_s"),
    ("slag_lab.conjugate", "refined_sup", "conjugate.refine_s"),
    ("slag_lab.conjugate", "conjugate_fast", "conjugate.fast_s"),
    ("slag_lab.conjugate", "auto_slope_grid", "conjugate.slope_grid_s"),
    ("slag_lab.conjugate", "check_sum_rule", "conjugate.audit_s"),
    ("slag_lab.rotation", "rotate", "rotation.self_s"),
    ("slag_lab.audits", "check_subsolution", "audits.jet_check_s"),
    ("slag_lab.audits", "check_supersolution", "audits.jet_check_s"),
)
LAYER_OF = {fn: metric for _, fn, metric in TRACED}


def _matrices(args, out):
    shape = getattr(args[0], "shape", ())
    return math.prod(shape[:-2])


# work counted from a traced call's arguments or result
COUNTERS = {
    "solve_dirichlet": ("solver.newton_iters", lambda args, out: out[1].iterations),
    "eigvals_sym": ("eigen.matrices", _matrices),
    "sup_with_argmax": ("conjugate.sup_pairs",
                        lambda args, out: int(args[0].mask.sum()) * args[1].n_nodes()),
    "rotate": ("rotation.slope_nodes", lambda args, out: out.field.grid.n_nodes()),
}

# every per-layer metric with its unit, in report order
PER_LAYER = {
    "solver.self_s": "s",
    "solver.linear_solve_s": "s",
    "solver.linear_solves": "count",
    "solver.newton_iters": "count",
    "solver.residual_evals": "count",
    "operators.linearization_s": "s",
    "hessians.stencil_s": "s",
    "hessians.jet_s": "s",
    "hessians.convexity_s": "s",
    "eigen.eigvals_s": "s",
    "eigen.matrices": "count",
    "fields.fields_built": "count",
    "conjugate.sup_s": "s",
    "conjugate.sup_pairs": "count",
    "conjugate.refine_s": "s",
    "conjugate.fast_s": "s",
    "conjugate.fast_calls": "count",
    "conjugate.slope_grid_s": "s",
    "conjugate.audit_s": "s",
    "rotation.self_s": "s",
    "rotation.slope_nodes": "count",
    "audits.jet_check_s": "s",
    "trace.op_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 for an operation root
    op: int


class Tracer:
    """Collects spans and counts for the operations of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan,
                               self._stack[-1] if self._stack else -1, self._op))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one timed operation; calls outside it are not traced."""
        self._op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    def count(self, metric: str, amount: int = 1) -> None:
        if self._op is not None:
            self.counts[metric] = self.counts.get(metric, 0) + amount

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.count(counter[0], counter[1](args, out))
            return out

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration less the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.end - s.start - covered)
        return out

    def _under(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx].name == name:
                return True
            idx = self.spans[idx].parent
        return False

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation layer times and counts over the traced operations."""
        totals = {name: 0.0 for name in PER_LAYER if name != "trace.op_s"}
        for span, own in zip(self.spans, self.self_times()):
            metric = LAYER_OF.get(span.name)
            if metric is None:
                continue
            in_solve = self._under(span.parent, "solve_dirichlet")
            if span.name == "spsolve":
                if not in_solve:
                    continue
                totals["solver.linear_solves"] += 1
            if span.name == "hessian_matrices" and in_solve:
                totals["solver.residual_evals"] += 1
            if span.name == "conjugate_fast":
                totals["conjugate.fast_calls"] += 1
            totals[metric] += own
        for metric, value in self.counts.items():
            totals[metric] += value
        return {name: value / n_ops for name, value in totals.items()}

    def dump(self, path, origin: float) -> None:
        """Write spans as [name, start_s, end_s, parent, op] rows."""
        rows = [[s.name, s.start - origin, s.end - origin, s.parent, s.op]
                for s in self.spans]
        path.write_text(json.dumps({"columns": ["name", "start_s", "end_s",
                                                "parent", "op"],
                                    "spans": rows}))


@contextmanager
def installed(tracer: Tracer, callers):
    """Patch every traced name where `callers` or slag_lab look it up; undo on exit."""
    patched = []
    program = [m for n, m in list(sys.modules.items()) if n.startswith("slag_lab")]
    try:
        for modname, fn_name, _ in TRACED:
            home = importlib.import_module(modname)
            orig = getattr(home, fn_name)
            wrapper = tracer.wrap(orig, fn_name)
            for mod in [home, *callers, *program]:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, orig))
        from slag_lab.fields import PotentialField

        post_init = PotentialField.__post_init__

        def counted(field_self):
            tracer.count("fields.fields_built")
            post_init(field_self)

        PotentialField.__post_init__ = counted
        patched.append((PotentialField, "__post_init__", post_init))
        yield tracer
    finally:
        for obj, attr, orig in reversed(patched):
            setattr(obj, attr, orig)

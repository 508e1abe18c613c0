"""Spans at the module boundaries of ``airy_defects``, installed from outside.

``Tracer.install`` replaces every public function and every public
instance method of the layer modules (``solver``, ``closedform``,
``fields``, ``energy``, ``asymptotics``, ``boundary``, ``cli``) with a
wrapper, in the defining module and in every package module that
imported the name, and replaces ``splu`` in ``solver``'s namespace.
``Tracer.restore`` puts every original back. A wrapper opens a span only
when the call enters a layer other than the innermost open one, so a
layer calling itself (``SumField.value`` summing its terms, say) adds no
span: each span is one boundary crossing and its calls are outermost.

Spans stay in memory as (name, start, end, parent, operation) and are
written once, by ``write``. Left unwrapped: class constructors,
properties, class and static methods, exception types, and
``fields.fmt17``, the float formatter the CLI calls once per CSV number,
where a span would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("solver", "closedform", "fields", "energy", "asymptotics", "boundary", "cli")
UNWRAPPED = {("fields", "fmt17")}

# counts that must repeat exactly between two traced passes of one seed
EXACT_COUNTS = (
    "splu.fill_nnz", "splu.n", "closedform.calls", "closedform.points",
    "fields.cells", "cli.bytes_written",
)


def _points(x) -> int:
    """Evaluation points in a closed-form argument: rows of an (N, 2)
    or (N, 2, 2) array, one for a single (2,) point, else its size."""
    shape = np.shape(x)
    if len(shape) >= 2:
        return int(shape[0])
    if len(shape) == 1:
        return 1 if shape[0] == 2 else int(shape[0])
    return 1


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = defaultdict(float)
        self._open = []  # indices of open spans, innermost last
        self._patches = []  # (owner, attribute, original)
        self.op = -1

    # -- spans ------------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def operation(self, op_id: int, label: str):
        """Context manager for the root span of one workload operation."""
        tracer = self

        class _Op:
            def __enter__(self):
                tracer.op = op_id
                self.idx = tracer._begin("op:" + label)

            def __exit__(self, *exc):
                tracer._end(self.idx)
                tracer.op = -1
                return False

        return _Op()

    def _inside(self, layer: str) -> bool:
        return bool(self._open) and self.spans[self._open[-1]][0] == layer

    def _wrap(self, layer: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._inside(layer):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = tracer._begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if after is not None:
                after(args, result, idx)
            return result

        return wrapper

    # -- per-layer hooks ----------------------------------------------------

    def _closedform_points(self, args, method: bool):
        rest = args[1:] if method else args
        if rest:
            self.counts["closedform.points"] += _points(rest[0])

    def _fields_cells(self, args, result, idx):
        grid_type = self._grid_type
        for obj in (*args, result):
            if isinstance(obj, grid_type):
                self.counts["fields.cells"] += obj.nx * obj.ny
                return

    def _solver_report(self, args, result, idx):
        if not hasattr(result, "assemble_seconds"):
            return
        c = self.counts
        c["solver.assemble_s"] += result.assemble_seconds
        c["solver.solve_s"] += result.solve_seconds
        c["solver.residual_max"] = max(c["solver.residual_max"], result.residual)
        span = self.spans[idx]
        c[f"solver.assemble_s.n{result.grid_n}"] += result.assemble_seconds
        c[f"solver.wall_s.n{result.grid_n}"] += span[2] - span[1]

    def _splu(self, splu):
        tracer = self

        class _Factor:
            """Forwards to the SuperLU object, tracing ``solve``."""

            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                idx = tracer._begin("lu_solve")
                try:
                    return self._lu.solve(*args, **kwargs)
                finally:
                    tracer._end(idx)

            def __getattr__(self, name):
                return getattr(self._lu, name)

        @functools.wraps(splu)
        def traced_splu(A, *args, **kwargs):
            idx = tracer._begin("splu")
            try:
                lu = splu(A, *args, **kwargs)
            finally:
                tracer._end(idx)
            # fill is read after the span closes, so splu.s stays the
            # factorization alone
            c = tracer.counts
            c["splu.n"] += A.shape[0]
            c["splu.matrix_nnz"] += A.nnz
            c["splu.fill_nnz"] += lu.L.nnz + lu.U.nnz
            return _Factor(lu)

        return traced_splu

    # -- install / restore -----------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"airy_defects.{name}") for name in LAYERS}
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "airy_defects" or name.startswith("airy_defects."))]
        self._grid_type = mods["fields"].Grid
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or (layer, name) in UNWRAPPED:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, obj, *self._hooks(layer, method=False))
                    for m in package:
                        if m.__dict__.get(name) is obj:
                            self._patch(m, name, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not attr.startswith("_") or attr == "__call__"):
                            self._patch(obj, attr, self._wrap(layer, fn, *self._hooks(layer, method=True)))
        solver = mods["solver"]
        self._patch(solver, "splu", self._splu(solver.splu))

    def _hooks(self, layer: str, method: bool):
        if layer == "closedform":
            return (lambda args: self._closedform_points(args, method)), None
        if layer == "fields" and not method:
            return None, self._fields_cells
        if layer == "solver":
            return None, self._solver_report
        return None, None

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self, span_range: tuple[int, int] | None = None) -> dict:
        """Per-layer calls, busy time ``s`` (spans with no ancestor of the
        same layer) and self time (duration minus direct children)."""
        lo, hi = span_range if span_range else (0, len(self.spans))
        spans = self.spans[lo:hi]
        child_time = defaultdict(float)
        for name, t0, t1, parent, _ in spans:
            if parent >= lo:
                child_time[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(spans, start=lo):
            if name.startswith("op:"):
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - child_time[i]
            p = parent
            while p >= lo and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < lo:
                out[f"{name}.s"] += t1 - t0
        return dict(out)

    def write(self, path) -> None:
        """Write every span as a JSON list of records."""
        records = [
            {"name": n, "start": t0, "end": t1, "parent": p, "op": op}
            for n, t0, t1, p, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(records, f)

"""Span tracer taken at the `sfrac` module boundaries, and the per-layer
metrics derived from its spans.

The tracer wraps, from outside the package, the functions and methods
through which one module calls into another (`TARGETS`).  A wrapped
function is replaced in every `sfrac` module that holds it, so
`from .coeff import check_conditions` copies are caught too; methods are
replaced on their class.  `uninstall` puts every original back.  A target
that no longer exists is skipped and listed in `missing`; its metrics then
read 0.

Each span records its name, start, end, parent, op id and thread id.  A
span opened on a worker thread with no open span of its own takes the main
thread's innermost open span as parent, so the node solves that `frac`
farms out to its thread pool count as children of the `frac` span that
waits for them.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    op: int
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- hooks: record counts at the boundary once the wrapped call returned --


def _bytes_written(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _workspace(span, args, kwargs, result):
    ws = args[0]
    span.attrs["factorized"] = int(getattr(ws, "_lu", None) is not None)
    span.attrs["N"] = int(ws.grid.N)


def _rhs(span, args, kwargs, result):
    rhs = np.asarray(args[1] if len(args) > 1 else kwargs["rhs"])
    rows = rhs.reshape(-1, rhs.shape[-1])
    span.attrs["rows"] = int(rows.shape[0])
    span.attrs["useful_rows"] = int(np.count_nonzero(rows.any(axis=1)))


def _nodes(span, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    span.attrs["nodes"] = int(spec.n_sing + spec.n_tail)


def _steps(span, args, kwargs, result):
    span.attrs["steps"] = len(result.times) - 1


_STENCILS = ("apply_D", "apply_A", "apply_A_transpose", "apply_L", "apply_T")

# (module, attribute or Class.method, span name, hook)
TARGETS = (
    ("sfrac.cli", "main", "cli.main", None),
    ("sfrac.cli", "_write_json", "cli.write", _bytes_written),
    ("sfrac.cli", "_write_fields_csv", "cli.write", _bytes_written),
    ("sfrac.cli", "_write_snapshot_csv", "cli.write", _bytes_written),
    ("sfrac.cli", "_write_trace_csv", "cli.write", _bytes_written),
    ("sfrac.coeff", "check_conditions", "coeff.check_conditions", None),
    ("sfrac.coeff", "make_profile", "coeff.profile", None),
    ("sfrac.grid", "Operators.__init__", "grid.operators", None),
    ("sfrac.grid", "Operators.dense_L", "grid.dense_L", None),
    *(("sfrac.grid", f"Operators.{m}", "grid.stencil", None) for m in _STENCILS),
    ("sfrac.resolvent", "ResolventWorkspace.__init__", "resolvent.factor",
     _workspace),
    ("sfrac.resolvent", "ResolventWorkspace._solve_stack", "resolvent.solve",
     _rhs),
    ("sfrac.frac", "apply_P_alpha", "frac.apply", _nodes),
    ("sfrac.frac", "build_matrix", "frac.build_matrix", _nodes),
    ("sfrac.frac", "quad_nodes", "frac.quad_nodes", None),
    ("sfrac.evolve", "evolve", "evolve.run", _steps),
    ("sfrac.evolve", "generator", "evolve.generator", None),
    ("sfrac.oracle", "closed_form_P_alpha", "oracle.closed_form", None),
    ("sfrac.oracle", "s_spectrum_probe", "oracle.spectrum", None),
)


class Tracer:
    """Installs the wrappers of `TARGETS` while in a `with` block.

    track_alloc: run tracemalloc inside every outermost frac span and
    record its peak.  tracemalloc slows every Python allocation, so a run
    measures allocation on an untimed op and timing with it off.
    """

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = -1
        self._patched = []  # (owner, attribute name, original)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[Span] = []
        self._ids = itertools.count()

    # -- installing ----------------------------------------------------------
    def install(self):
        for module_name, target, span_name, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{target}")
                continue
            cls_name, _, attr = target.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}.{target}")
                continue
            wrapper = self._wrap(original, span_name, hook)
            if cls_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in [m for n, m in sys.modules.items()
                        if n == "sfrac" or n.startswith("sfrac.")]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans -----------------------------------------------------------------
    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, span_name, hook):
        tracer = self
        frac = self.track_alloc and span_name.startswith("frac.")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            span = Span(next(tracer._ids), span_name, tracer.op,
                        threading.get_ident(),
                        parent.id if parent is not None else None, 0.0)
            tracer.spans.append(span)
            stack.append(span)
            measure = frac and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    span.attrs["peak_alloc_bytes"] = peak
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: str, extra: dict):
        with open(path, "w") as fh:
            json.dump({**extra, "missing": self.missing,
                       "spans": [asdict(s) for s in self.spans]}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics


def _covered(span: Span, children) -> float:
    """Length of span's interval covered by the union of its children."""
    spans = sorted((max(c.start, span.start), min(c.end, span.end))
                   for c in children)
    total, lo, hi = 0.0, None, None
    for a, b in spans:
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def _per_op(spans) -> dict:
    """Sums for one op's spans."""
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def self_time(s):
        return s.duration - _covered(s, children.get(s.id, ()))

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p is not None else ""

    def parent_layer(s):
        p = by_id.get(s.parent)
        return p.layer if p is not None else ""

    out = dict.fromkeys((
        "cli.self_s", "cli.write_s", "cli.artifact_bytes",
        "coeff.check_conditions_s", "coeff.profile_s",
        "grid.stencil_s", "grid.stencil_calls", "grid.operators_s",
        "grid.dense_L_s", "resolvent.factor_s", "resolvent.factorizations",
        "resolvent.factor_gflop_computed", "resolvent.solve_s",
        "resolvent.rhs_columns", "resolvent.useful_rhs_columns",
        "resolvent.busy_s", "frac.self_s", "frac.nodes", "evolve.self_s",
        "evolve.generator_s", "evolve.steps", "oracle.closed_form_s",
        "oracle.spectrum_s"), 0.0)
    for s in spans:
        d = s.duration
        if s.name == "cli.main":
            out["cli.self_s"] += self_time(s)
        elif s.name == "cli.write":
            out["cli.write_s"] += d
            out["cli.artifact_bytes"] += s.attrs.get("bytes", 0)
        elif s.name == "coeff.check_conditions":
            out["coeff.check_conditions_s"] += d
        elif s.name == "coeff.profile":
            out["coeff.profile_s"] += d
        elif s.name == "grid.stencil" and parent_name(s) != "grid.stencil":
            out["grid.stencil_s"] += d
            out["grid.stencil_calls"] += 1
        elif s.name == "grid.operators":
            out["grid.operators_s"] += d
        elif s.name == "grid.dense_L":
            out["grid.dense_L_s"] += d
        elif s.name == "evolve.run":
            out["evolve.self_s"] += self_time(s)
            out["evolve.steps"] += s.attrs.get("steps", 0)
        elif s.name == "evolve.generator":
            out["evolve.generator_s"] += d
        elif s.name == "oracle.closed_form":
            out["oracle.closed_form_s"] += d
        elif s.name == "oracle.spectrum":
            out["oracle.spectrum_s"] += d
        elif s.layer == "frac":
            out["frac.self_s"] += self_time(s)
            out["frac.nodes"] += s.attrs.get("nodes", 0)
        if s.layer == "resolvent" and parent_layer(s) != "resolvent":
            out["resolvent.busy_s"] += d
        if s.name == "resolvent.factor":
            out["resolvent.factor_s"] += d
            if s.attrs.get("factorized"):
                out["resolvent.factorizations"] += 1
                out["resolvent.factor_gflop_computed"] += (
                    2.0 / 3.0 * s.attrs["N"] ** 3 / 1e9)
        elif s.name == "resolvent.solve":
            out["resolvent.solve_s"] += d
            out["resolvent.rhs_columns"] += s.attrs.get("rows", 0)
            out["resolvent.useful_rhs_columns"] += s.attrs.get("useful_rows", 0)
    return out


# metric name -> unit, as printed by the traced run
LAYER_UNITS = {
    "cli.self_s": "s", "cli.write_s": "s", "cli.artifact_bytes": "bytes",
    "coeff.check_conditions_s": "s", "coeff.profile_s": "s",
    "grid.stencil_s": "s", "grid.stencil_calls": "count",
    "grid.operators_s": "s", "grid.dense_L_s": "s",
    "resolvent.factor_s": "s", "resolvent.factorizations": "count",
    "resolvent.factor_gflop_computed": "GFLOP",
    "resolvent.solve_s": "s", "resolvent.rhs_columns": "count",
    "resolvent.useful_rhs_share": "share", "resolvent.busy_share": "share",
    "frac.self_s": "s", "frac.nodes": "count", "frac.peak_alloc_mb": "MB",
    "evolve.self_s": "s", "evolve.generator_s": "s", "evolve.steps": "count",
    "oracle.closed_form_s": "s", "oracle.spectrum_s": "s",
    "trace.latency_p50_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(spans, latencies: dict, threads: int) -> dict:
    """Per-layer metrics over the traced ops: times and counts per op,
    averaged over the ops, and shares as ratios of totals.  `latencies`
    maps op id -> measured op latency."""
    per_op = {}
    for s in spans:
        per_op.setdefault(s.op, []).append(s)
    rows = [_per_op(per_op.get(op, [])) for op in latencies]
    out = {}
    for name in LAYER_UNITS:
        if rows and name in rows[0]:
            out[name] = statistics.fmean(r[name] for r in rows)
    rhs = sum(r["resolvent.rhs_columns"] for r in rows)
    useful = sum(r["resolvent.useful_rhs_columns"] for r in rows)
    out["resolvent.useful_rhs_share"] = useful / rhs if rhs else 0.0
    wall = sum(latencies.values()) * threads
    busy = sum(r["resolvent.busy_s"] for r in rows)
    out["resolvent.busy_share"] = busy / wall if wall else 0.0
    return out


def peak_alloc_mb(spans) -> float:
    """Largest tracemalloc peak of a frac span (track_alloc tracers)."""
    peaks = [s.attrs.get("peak_alloc_bytes", 0) for s in spans
             if s.layer == "frac"]
    return max(peaks, default=0) / 2 ** 20

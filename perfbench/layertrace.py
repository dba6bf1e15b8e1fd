"""Run-time tracing of the realpos layers, from outside the library.

``Tracer.install()`` replaces every public function of the realpos layer
modules, in every ``realpos`` namespace that binds it, and the LAPACK entry
points the library reaches through numpy and scipy, with a wrapper that
records one span per call: ``(id, parent id, label, start ns, end ns, query,
raised, info)``.  Spans stay in memory; ``write_spans`` saves them once the
run is over.  ``uninstall()`` puts the original objects back, so an untraced
pass runs the library exactly as shipped.

``tally`` folds one process's spans into additive totals (so totals from
several CLI processes can be summed) and ``layer_metrics`` turns totals into
the per-layer metrics named in ``PER_LAYER``.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import Counter

import numpy as np
import scipy.linalg

LAYERS = (
    "matrices", "cones", "transforms", "powers", "projections",
    "algebra", "interp", "generators", "cli",
)

# (label, namespace, attribute); np.linalg.norm(m, 2) reaches LAPACK's SVD
# without passing through np.linalg.svd, so op_norm is counted as one SVD.
KERNELS = (
    ("kernel.svd", np.linalg, "svd"),
    ("kernel.eig", np.linalg, "eig"),
    ("kernel.eig", scipy.linalg, "eig"),
    ("kernel.eigh", np.linalg, "eigh"),
    ("kernel.eigh", np.linalg, "eigvalsh"),
    ("kernel.lu", scipy.linalg, "lu_factor"),
)

# Result fields worth keeping: (iterations or rounds, status or verdict).
_INFO = {
    "projections.support_projection": lambda r: (r.iterations, r.status),
    "projections.peak_projection": lambda r: (r.iterations, r.status),
    "interp.solve_feasibility": lambda s: (s.iterations, s.verdict),
}

# Every per-layer metric, in report order, with its unit and direction.
PER_LAYER = (
    ("matrices.solve.calls", "count", "lower"),
    ("matrices.solve.time_s", "s", "lower"),
    ("matrices.op_norm.calls", "count", "lower"),
    ("matrices.op_norm.time_s", "s", "lower"),
    ("matrices.min_real_eig.calls", "count", "lower"),
    ("matrices.self_s", "s", "lower"),
    ("kernel.svd.calls", "count", "lower"),
    ("kernel.eig.calls", "count", "lower"),
    ("kernel.eigh.calls", "count", "lower"),
    ("kernel.lu.calls", "count", "lower"),
    ("kernel.time_s", "s", "lower"),
    ("powers.power_balakrishnan.calls", "count", "lower"),
    ("powers.power_balakrishnan.time_s", "s", "lower"),
    ("powers.power_spectral.calls", "count", "lower"),
    ("powers.power_spectral.time_s", "s", "lower"),
    ("powers.power_spectral.failed", "count", "lower"),
    ("powers.power.calls", "count", "lower"),
    ("powers.root_series.time_s", "s", "lower"),
    ("powers.self_s", "s", "lower"),
    ("projections.support_projection.calls", "count", "lower"),
    ("projections.support_projection.time_s", "s", "lower"),
    ("projections.peak_projection.calls", "count", "lower"),
    ("projections.peak_projection.time_s", "s", "lower"),
    ("projections.iterations_mean", "count", "lower"),
    ("projections.diverged_ratio", "ratio", "lower"),
    ("projections.self_s", "s", "lower"),
    ("interp.solve_feasibility.calls", "count", "lower"),
    ("interp.solve_feasibility.time_s", "s", "lower"),
    ("interp.rounds_mean", "count", "lower"),
    ("interp.round_ms", "ms", "lower"),
    ("interp.feasible_ratio", "ratio", "higher"),
    ("interp.unconverged_ratio", "ratio", "lower"),
    ("interp.self_s", "s", "lower"),
    ("algebra.generate_algebra.calls", "count", "lower"),
    ("algebra.generate_algebra.time_s", "s", "lower"),
    ("algebra.identity_of.time_s", "s", "lower"),
    ("algebra.a_h.time_s", "s", "lower"),
    ("algebra.contains.calls", "count", "lower"),
    ("algebra.self_s", "s", "lower"),
    ("cones.time_s", "s", "lower"),
    ("transforms.time_s", "s", "lower"),
    ("generators.time_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.time_s", "s", "lower"),
    ("trace.query_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Wraps the library's layer boundaries and keeps their spans in memory."""

    def __init__(self):
        self.spans: list = []
        self.query = -1  # set by the caller before each query
        self._stack: list = []
        self._ids = itertools.count()
        self._patched: list = []  # (namespace, attribute, original)

    def _wrap(self, label: str, fn):
        info = _INFO.get(label)
        clock = time.perf_counter_ns
        stack, spans, ids = self._stack, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = 1
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = 0
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, label, t0, t1, self.query, raised,
                              info(out) if info and not raised else None))

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules.get(f"realpos.{layer}")
            if module is None:  # realpos.cli is imported only by CLI runs
                continue
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "realpos" and not modname.startswith("realpos."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for label, namespace, attr in KERNELS:
            original = getattr(namespace, attr)
            self._patched.append((namespace, attr, original))
            setattr(namespace, attr, self._wrap(label, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def write_spans(path: str, spans: list, **extra) -> None:
    labels = sorted({s[2] for s in spans})
    index = {label: i for i, label in enumerate(labels)}
    rows = [[s[0], s[1], index[s[2]], s[3], s[4], s[5], s[6], s[7]] for s in spans]
    with open(path, "w") as fh:
        json.dump({**extra, "labels": labels, "spans": rows}, fh, separators=(",", ":"))


def read_spans(path: str) -> tuple[list, dict]:
    with open(path) as fh:
        data = json.load(fh)
    labels = data.pop("labels")
    rows = data.pop("spans")
    spans = [(r[0], r[1], labels[r[2]], r[3], r[4], r[5], r[6],
              tuple(r[7]) if r[7] is not None else None) for r in rows]
    return spans, data


def tally(spans: list) -> Counter:
    """Additive totals for one process's completed spans.

    ``time`` of a label or layer counts only spans with no ancestor of the
    same label or layer, so recursion is not counted twice; ``self`` is a
    span's duration minus the durations of its direct child spans.
    """
    by_id = {s[0]: s for s in spans}
    child_ns = Counter()
    for s in spans:
        if s[1] >= 0:
            child_ns[s[1]] += s[4] - s[3]
    out = Counter()
    for sid, parent, label, t0, t1, _query, raised, info in spans:
        layer = label.partition(".")[0]
        dur = (t1 - t0) * 1e-9
        out["calls", label] += 1
        out["raised", label] += raised
        out["self", layer] += dur - child_ns[sid] * 1e-9
        nested_label = nested_layer = False
        p = parent
        while p >= 0:
            ancestor = by_id[p]
            nested_label = nested_label or ancestor[2] == label
            nested_layer = nested_layer or ancestor[2].partition(".")[0] == layer
            p = ancestor[1]
        if not nested_label:
            out["time", label] += dur
        if not nested_layer:
            out["time", layer] += dur
        if info is not None:
            steps, status = info
            out["steps", layer] += steps
            out["results", layer] += 1
            out["status", layer, status] += 1
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Counter, query_s: float, overhead_s: float) -> dict:
    """Per-layer metric values from summed ``tally`` totals."""
    kernels = ("kernel.svd", "kernel.eig", "kernel.eigh", "kernel.lu")
    values = {
        "kernel.svd.calls": t["calls", "kernel.svd"] + t["calls", "matrices.op_norm"],
        "kernel.time_s": sum(t["time", k] for k in kernels) + t["time", "matrices.op_norm"],
        "projections.iterations_mean": _ratio(t["steps", "projections"],
                                              t["results", "projections"]),
        "projections.diverged_ratio": _ratio(t["status", "projections", "diverged"],
                                             t["results", "projections"]),
        "interp.rounds_mean": _ratio(t["steps", "interp"], t["results", "interp"]),
        "interp.round_ms": 1e3 * _ratio(t["time", "interp.solve_feasibility"],
                                        t["steps", "interp"]),
        "interp.feasible_ratio": _ratio(t["status", "interp", "feasible"], t["results", "interp"]),
        "interp.unconverged_ratio": _ratio(t["status", "interp", "unconverged"],
                                           t["results", "interp"]),
        "cli.import_s": t["import_s", "cli"],
        "trace.query_s": query_s,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name not in values:
            head, _, field = name.rpartition(".")
            if field == "calls":
                value = t["calls", head]
            elif field == "failed":
                value = t["raised", head]
            elif field == "self_s":
                value = t["self", head]
            else:  # time_s of a function or of a whole layer
                value = t["time", head]
        else:
            value = values[name]
        out[name] = {"value": value, "unit": unit}
    return out

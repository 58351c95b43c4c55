"""Span tracing from outside the library, and the per-layer metrics.

:class:`Tracer` wraps every public function of the seven layers
(``poientropy.<layer>``) on every module namespace that holds it, so a call
made through ``poientropy.bounds.poisson_entropy`` is traced as well as one
made through ``poientropy.poisson.poisson_entropy``.  Each call records a
span (name, start, end, parent span, op id) in flat in-memory arrays; the
arrays are written out once at the end.  ``LogScalar`` arithmetic is counted
per op but not timed: its calls take ~3 us, and timing each one would
swamp what it measures.

Only calls from the thread that installed the tracer are recorded; the
simulator's worker threads call private helpers only.

:func:`layer_metrics` derives the per-layer numbers from the spans.  A
layer's self time is the time in its spans minus the part covered by child
spans of other layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from array import array

import numpy as np

LAYERS = ("logspace", "poisson", "exact", "chenstein", "bounds", "models", "cli")
_SCALAR_ARITHMETIC = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__")
_ENTROPY_ROUTES = (
    "poisson.poisson_entropy",
    "poisson.poisson_entropy_series",
    "poisson.poisson_entropy_asymptotic",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _note_convolution(args, kwargs, pmf):
    # Cells the convolution updates against those at or below the last
    # nonzero pmf index: computed from the returned pmf, not observed.
    n = pmf.mass.size - 1
    last = int(np.flatnonzero(pmf.mass)[-1])
    steps = np.arange(n, dtype=np.int64) + 2
    return {"cells": int(steps.sum()), "useful": int(np.minimum(steps, last + 2).sum())}


def _note_entropy(args, kwargs, value):
    lam = float(_arg(args, kwargs, 0, "lam"))
    return {"lam": lam, "nats": value.nats, "cert": value.certified_abs_error, "method": value.method}


def _note_coefficients(args, kwargs, coeffs):
    spec = _arg(args, kwargs, 0, "spec")
    return {"neighbour_terms": sum(len(hood) for hood in spec.neighborhoods)}


def _note_monte_carlo(args, kwargs, result):
    return {
        "n": result.n,
        "replicates": result.replicates,
        "threads": int(_arg(args, kwargs, 4, "threads", 1)),
    }


_ANNOTATORS = {
    "exact.exact_distribution": _note_convolution,
    "chenstein.coefficients_from_spec": _note_coefficients,
    "models.hypercube_monte_carlo": _note_monte_carlo,
    **{name: _note_entropy for name in _ENTROPY_ROUTES},
}


class Tracer:
    """Records spans around the library's public functions while installed."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.notes: dict = {}  # span index -> annotation
        self.op_counts: dict = {}  # op id -> {counter: value}
        self.current_op = -1
        self._stack: list = []
        self._scalar_ops = 0
        self._thread = None
        self._patches: list = []

    # -- installation ---------------------------------------------------------

    def install(self):
        import poientropy
        from poientropy.logspace import LogScalar

        self._thread = threading.get_ident()
        modules = [importlib.import_module(f"poientropy.{layer}") for layer in LAYERS]
        targets = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[obj] = self._wrap(obj, f"{layer}.{attr}")
        for namespace in [poientropy] + modules:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patch(namespace, attr, targets[obj])
        for attr in _SCALAR_ARITHMETIC:
            self._patch(LogScalar, attr, self._count(vars(LogScalar)[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        annotate = _ANNOTATORS.get(name)
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            index = len(tracer.start)
            tracer.name.append(name_id)
            tracer.op.append(tracer.current_op)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.raised.append(0)
            tracer.end.append(0)
            stack.append(index)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[index] = clock()
                tracer.raised[index] = 1
                stack.pop()
                raise
            tracer.end[index] = clock()
            stack.pop()
            if annotate is not None:
                tracer.notes[index] = annotate(args, kwargs, result)
            return result

        return traced

    def _count(self, method):
        tracer = self

        @functools.wraps(method)
        def counted(*args, **kwargs):
            tracer._scalar_ops += 1
            return method(*args, **kwargs)

        return counted

    # -- op boundaries --------------------------------------------------------

    def begin_op(self, op_id: int):
        self.current_op = op_id
        self._op_scalar_start = self._scalar_ops

    def end_op(self, **counters):
        counts = dict(counters)
        scalar_ops = self._scalar_ops - self._op_scalar_start
        if scalar_ops:
            counts["logscalar_ops"] = scalar_ops
        self.op_counts[self.current_op] = counts
        self.current_op = -1

    @property
    def span_count(self) -> int:
        return len(self.start)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path):
        """Write the spans, their names and annotations to one ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            notes=np.array(json.dumps({str(k): v for k, v in self.notes.items()})),
            op_counts=np.array(json.dumps({str(k): v for k, v in self.op_counts.items()})),
            **self.arrays(),
        )


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


class SpanView:
    """The spans of a chosen set of ops, with helpers for layer timings."""

    def __init__(self, tracer: Tracer, ops):
        data = tracer.arrays()
        keep = np.isin(data["op"], np.fromiter(ops, dtype=np.int32))
        self.index = np.flatnonzero(keep)
        self.name = data["name"][keep]
        self.op = data["op"][keep]
        self.raised = data["raised"][keep].astype(bool)
        self.dur = (data["end_ns"] - data["start_ns"])[keep]
        # Parent name per span (-1 at an op's top level).
        parent = data["parent"][keep]
        self.parent_name = np.where(parent >= 0, data["name"][np.maximum(parent, 0)], -1)
        self.names = tracer.names
        self.notes = tracer.notes
        self.op_counts = {op: tracer.op_counts.get(op, {}) for op in ops}

    def ids(self, names) -> np.ndarray:
        return np.array([self.names.index(n) for n in names if n in self.names], dtype=np.int32)

    def layer_ids(self, layer: str) -> list:
        return [n for n in self.names if n.startswith(layer + ".")]

    def per_op_self(self, members):
        """Mean over touching ops of the self time (ns) of ``members``.

        The time inside the outermost member spans, less the time in their
        non-member children.  None when no op touched ``members``.
        """
        top = self.top_spans(members)
        if not top.any():
            return None
        member = np.isin(self.name, self.ids(members))
        child = ~member & np.isin(self.parent_name, self.ids(members))
        total = self.dur[top].sum() - self.dur[child].sum()
        return float(total) / np.unique(self.op[top]).size

    def per_op_inclusive(self, names):
        """Mean over touching ops of the time (ns) inside calls to ``names``."""
        top = self.top_spans(names)
        if not top.any():
            return None
        return float(self.dur[top].sum()) / np.unique(self.op[top]).size

    def top_spans(self, names):
        member = np.isin(self.name, self.ids(names))
        return member & ~np.isin(self.parent_name, self.ids(names))

    def notes_of(self, mask) -> list:
        return [self.notes[i] for i in self.index[mask] if i in self.notes]


def _mean_per_op(counts: dict, key: str):
    values = [c[key] for c in counts.values() if key in c]
    return float(np.mean(values)) if values else None


def layer_metrics(view: SpanView, grid_refs: dict) -> dict:
    """Every per-layer metric that ``view``'s spans can give (None otherwise)."""
    out = {}
    inside = view.per_op_inclusive

    def scaled(value, factor):
        return None if value is None else value / factor

    # exact
    out["exact.convolve_ms"] = scaled(inside(["exact.exact_distribution"]), 1e6)
    conv = view.notes_of(view.top_spans(["exact.exact_distribution"]))
    out["exact.useful_cell_ratio"] = (
        sum(n["useful"] for n in conv) / sum(n["cells"] for n in conv) if conv else None
    )
    out["exact.tv_us"] = scaled(inside(["exact.tv_to_poisson"]), 1e3)
    out["exact.entropy_us"] = scaled(inside(["exact.pmf_entropy"]), 1e3)

    # poisson: the entropy routes call nothing outside their layer, so their
    # self time (within the layer) is the time inside them.
    out["poisson.entropy_us"] = scaled(inside(_ENTROPY_ROUTES), 1e3)
    routes = view.notes_of(view.top_spans(_ENTROPY_ROUTES))
    route_ops = np.unique(view.op[view.top_spans(_ENTROPY_ROUTES)]).size
    for method in ("series", "asymptotic"):
        out[f"poisson.{method}_calls"] = (
            sum(n["method"] == method for n in routes) / route_ops if route_ops else None
        )
    out.update(_certificate_audit(view, grid_refs))

    # chenstein
    out["chenstein.spec_build_ms"] = scaled(inside(["chenstein.dependency_spec_from_dict"]), 1e6)
    out["chenstein.coeffs_ms"] = scaled(inside(["chenstein.coefficients_from_spec"]), 1e6)
    coeff_mask = np.isin(view.name, view.ids(["chenstein.coefficients_from_spec"]))
    terms = view.notes_of(coeff_mask)
    coeff_ops = np.unique(view.op[coeff_mask]).size
    out["chenstein.neighbour_terms"] = (
        sum(n["neighbour_terms"] for n in terms) / coeff_ops if coeff_ops else None
    )
    out["chenstein.tv_report_us"] = scaled(inside(["chenstein.tv_bound_report"]), 1e3)

    # logspace
    out["logspace.scalar_ops"] = _mean_per_op(view.op_counts, "logscalar_ops")

    # bounds
    out["bounds.self_us"] = scaled(view.per_op_self(view.layer_ids("bounds")), 1e3)
    attempts = view.top_spans(
        [
            "bounds.entropy_bound_general",
            "bounds.entropy_bound_independent",
            "bounds.entropy_bound_independent_sharp",
            "bounds.best_independent_bound",
        ]
    )
    out["bounds.refusal_frac"] = (
        float(view.raised[attempts].sum()) / attempts.sum() if attempts.any() else None
    )

    # models
    out["models.closed_form_us"] = scaled(
        inside(["models.hypercube_coefficients", "models.arithmetic_moments"]), 1e3
    )
    mc_mask = view.top_spans(["models.hypercube_monte_carlo"])
    mc = view.notes_of(mc_mask)
    if mc:
        dur = view.dur[mc_mask]
        threads = np.array([n["threads"] for n in mc])
        reps = np.array([n["replicates"] for n in mc], dtype=np.float64)
        coin_bytes = np.array([n["n"] * 2 ** (n["n"] - 1) + 2 * 2 ** n["n"] for n in mc])
        out["models.mc_replicates_per_s"] = reps.sum() / (dur.sum() / 1e9)
        out["models.mc_thread_speedup"] = float(dur[threads == 1].sum() / dur[threads == 2].sum())
        out["models.mc_coin_bytes_per_replicate"] = float((coin_bytes * reps).sum() / reps.sum())
    else:
        for key in ("mc_replicates_per_s", "mc_thread_speedup", "mc_coin_bytes_per_replicate"):
            out[f"models.{key}"] = None

    # cli
    out["cli.self_ms"] = scaled(view.per_op_self(["cli.main"]), 1e6)
    out["cli.out_bytes"] = _mean_per_op(view.op_counts, "cli_out_bytes")
    return out


def _certificate_audit(view: SpanView, grid_refs: dict) -> dict:
    """Compare every grid-lambda Poisson entropy with its mpmath reference.

    Counts distinct (route, lambda) values whose error exceeds the returned
    ``certified_abs_error``; None when the spans hold no grid lambda.
    """
    import mpmath as mp

    seen = {}
    mask = view.top_spans(_ENTROPY_ROUTES)
    for index, name in zip(view.index[mask], view.name[mask]):
        note = view.notes.get(index)
        if note is not None and note["lam"] in grid_refs:
            seen[(int(name), note["lam"])] = note
    if not seen:
        return {"poisson.cert_violations": None, "poisson.max_abs_err_nats": None}
    violations, worst = 0, 0.0
    with mp.workdps(40):
        for note in seen.values():
            err = abs(mp.mpf(note["nats"]) - mp.mpf(grid_refs[note["lam"]]))
            violations += err > note["cert"]
            worst = max(worst, float(err))
    return {"poisson.cert_violations": violations, "poisson.max_abs_err_nats": worst}

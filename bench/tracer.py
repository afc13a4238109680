"""Span tracing of the lambda_adapt modules, applied from outside.

``Tracer.install()`` replaces the public functions of every package
module with timing wrappers, in every module namespace that holds a
reference to them (``optimize.integrate_psi``, ``cli.integrate_psi``,
``oracle.integrate_psi`` ...), and ``Tracer.restore()`` puts the
originals back.  No file of the package is edited.

A span records its name, its parent span, its thread and its start and
end times, plus an optional count taken from the call.  Spans are kept
in memory under a lock (``sweep`` evaluates grid points on worker
threads) and summarized once, when the batch ends.  A span that starts
on a worker thread with no open span of its own is parented to the
innermost open span of the main thread, which is the ``sweep`` call
that submitted the work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "lambda_adapt"
LAYERS = ("config", "cli", "model", "dynamics", "thermo", "entropy",
          "oracle", "optimize")

# evolve is split by caller: compare() reaches it through the oracle
# namespace (forward run), the CLI leak check through its own import.
_SPLIT = {("oracle", "evolve"): "oracle.evolve_forward",
          ("cli", "evolve"): "oracle.evolve_backward"}

# private functions worth a span: one sweep point / optimizer evaluation
_PRIVATE = {"optimize": ("_evaluate",)}

# envelope evaluation is a method, called from the drive and quadratures
_METHODS = (("model", "PulseSpec", "shape_at"),)

# counts and extra values taken from a call's result
_COUNTS = {
    "model.shape_at": lambda r: int(getattr(r, "size", 1)),
    "dynamics.integrate_psi": lambda r: int(r.times.size - 1),
    "optimize.maximize": lambda r: int(r.n_evals),
    "oracle.evolve_forward": lambda r: int(r.states.shape[1]),
    "oracle.evolve_backward": lambda r: int(r.states.shape[1]),
}
_EXTRAS = {
    "oracle.evolve_forward": lambda r: {"norm_drift": float(r.norm_drift)},
    "oracle.evolve_backward": lambda r: {"norm_drift": float(r.norm_drift)},
}


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    thread: int
    t0: float
    t1: float
    count: int
    extra: dict | None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        extra = _EXTRAS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = 0
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                n = count(result) if count and result is not None else 0
                more = extra(result) if extra and result is not None else None
                with tracer._lock:
                    tracer.spans.append(Span(sid, parent, name,
                                             threading.get_ident(), t0, t1,
                                             n, more))

        return wrapper

    # -- patching --------------------------------------------------------

    def _modules(self) -> dict:
        return {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                for layer in LAYERS}

    def install(self):
        mods = self._modules()
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = (layer, attr)
            for attr in _PRIVATE.get(layer, ()):
                wrappers[getattr(mod, attr)] = (layer, attr.lstrip("_"))
        # one wrapper per function, installed in every namespace holding it
        made = {}
        for mod_layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj not in wrappers:
                    continue
                layer, name = wrappers[obj]
                span = _SPLIT.get((mod_layer, attr))
                if span is None:
                    span = f"{layer}.{name}"
                key = (obj, span)
                if key not in made:
                    made[key] = self.wrap(span, obj)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, made[key])
        for layer, cls_name, meth in _METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, self.wrap(f"{layer}.{meth}", raw))

    def restore(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- summary ---------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name totals, per-layer outer time and blocking-path self time.

        A layer's outer time sums the spans whose parent belongs to
        another layer, so nested calls inside one layer count once.

        A span's self time is its duration minus the union of its
        children's intervals (children may run on other threads).
        Worker-thread spans under one main-thread span overlap in time;
        their self times are scaled by (union of their top-level
        intervals) / (sum of their top-level durations) so that the
        per-layer times add up to the root spans' wall time.
        """
        spans = {s.sid: s for s in self.spans}
        children = defaultdict(list)
        for s in spans.values():
            if s.parent in spans:
                children[s.parent].append(s)

        def self_time(s: Span) -> float:
            return s.duration - _union(
                [(max(k.t0, s.t0), min(k.t1, s.t1))
                 for k in children.get(s.sid, ())])

        # worker spans overlap in time: scale each by its group's
        # (union of top-level intervals) / (sum of top-level durations),
        # the group being the worker spans under one main-thread span
        group_scale, worker_busy = {}, defaultdict(float)
        for anchor in spans.values():
            tops = [k for k in children.get(anchor.sid, ())
                    if k.thread != anchor.thread]
            if tops:
                total = sum(k.duration for k in tops)
                union = _union([(k.t0, k.t1) for k in tops])
                group_scale[anchor.sid] = union / total if total > 0 else 0.0
                worker_busy[anchor.name] += total

        def factor(s: Span) -> float:
            if s.thread == self._main:
                return 1.0
            while s.parent in spans and spans[s.parent].thread == s.thread:
                s = spans[s.parent]
            return group_scale.get(s.parent, 1.0)

        by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0, "count": 0,
                                       "max_count": 0})
        layer_self = defaultdict(float)
        layer_outer = defaultdict(float)
        extras = defaultdict(list)
        for s in spans.values():
            st = self_time(s)
            agg = by_name[s.name]
            agg["calls"] += 1
            agg["total_s"] += s.duration
            agg["self_s"] += st
            agg["count"] += s.count
            agg["max_count"] = max(agg["max_count"], s.count)
            if s.extra:
                extras[s.name].append(s.extra)
            layer_self[s.layer] += st * factor(s)
            parent = spans.get(s.parent)
            if parent is None or parent.layer != s.layer:
                layer_outer[s.layer] += s.duration
        return {"by_name": dict(by_name), "layer_self_s": dict(layer_self),
                "layer_outer_s": dict(layer_outer),
                "worker_busy_s": dict(worker_busy),
                "extras": dict(extras)}


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total

"""In-memory span tracer that wraps the layer boundaries of ``plcc``.

A layer is one package module. Its boundary is every function and class
named in the module's ``__all__`` (the public names of ``cli``, which has no
``__all__``), plus every function another ``plcc`` module imports from it,
since such an import is a call across layers. Each boundary function is
replaced by a timing wrapper on every ``plcc`` module attribute bound to it,
so calls that cross layers (``plcc.montecarlo.generate_mc_arfima``) and
calls inside a module (which look up the module globals) are both caught.
Classes are traced through their own ``__init__``.

Every call opens a span (name, layer, thread, parent, operation id, start,
end); one span stack is kept per thread. A span opened on a thread whose
stack is empty (a pool worker) takes as parent the innermost open span of
the thread that started the operation, i.e. the span that waits for it.
Spans stay in memory until :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
import types
from collections import defaultdict

LAYERS = ("arfima", "core", "detrended", "spectral", "powerlaw", "montecarlo", "fileio", "cli")


# Counts recorded at a boundary, computed from the call's arguments after it
# returns: (layer, function) -> (counter, fn(bound arguments) -> amount).
# Innovations are four float64 streams of truncation + burn-in + T samples.
COUNTERS = {
    ("arfima", "correlated_innovations"): ("arfima.innovation_bytes", lambda a: 4 * int(a["length"]) * 8),
    ("fileio", "write_series_csv"): ("fileio.csv_bytes", lambda a: os.path.getsize(a["path"])),
    ("fileio", "read_series_csv"): ("fileio.csv_bytes", lambda a: os.path.getsize(a["path"])),
    ("fileio", "sha256_file"): ("fileio.sha256_bytes", lambda a: os.path.getsize(a["path"])),
}


class Tracer:
    """Records spans and boundary counts for the operations it is told about."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, layer, thread, parent, op, start_ns, end_ns]
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = None
        self._op_thread = None
        self._op_stack: list = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ ops

    def begin_op(self, op_id: int) -> None:
        """Start an operation on the calling thread; later spans carry its id."""
        self._op = op_id
        self._op_thread = threading.get_ident()
        self._op_stack = self._stack()

    def end_op(self) -> None:
        self._op = None
        self._op_thread = None
        self._op_stack = []

    # ------------------------------------------------------------- wrapping

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, name: str):
        counter = COUNTERS.get((layer, name))
        signature = inspect.signature(fn) if counter else None
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            tid = threading.get_ident()
            if stack:
                parent = stack[-1]
            elif tid != tracer._op_thread and tracer._op_stack:
                parent = tracer._op_stack[-1]
            else:
                parent = None
            rec = [next(tracer._ids), name, layer, tid, parent, tracer._op, time.perf_counter_ns(), 0]
            tracer.spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[7] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                amount = counter[1](bound.arguments)
                with tracer._lock:
                    tracer.counts[counter[0]] += amount
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> dict[str, list[str]]:
        """Wrap every boundary function; returns the traced names per layer."""
        package = importlib.import_module("plcc")
        modules = {layer: importlib.import_module(f"plcc.{layer}") for layer in LAYERS}
        owners = {f"plcc.{layer}": layer for layer in LAYERS}
        namespaces = [package, *modules.values()]

        targets: dict[int, tuple[object, str]] = {}  # id(obj) -> (obj, layer)
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None)
            if names is None:
                names = [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                obj = getattr(mod, n)
                if isinstance(obj, (types.FunctionType, type)) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, layer)
        for ns in namespaces:
            for obj in vars(ns).values():
                home = owners.get(getattr(obj, "__module__", None))
                if isinstance(obj, types.FunctionType) and home and home != ns.__name__.rpartition(".")[2]:
                    targets[id(obj)] = (obj, home)

        traced_names: dict[str, list[str]] = defaultdict(list)
        for obj, layer in targets.values():
            traced_names[layer].append(obj.__name__)
            if isinstance(obj, type):
                init = obj.__dict__.get("__init__")
                if init is not None:
                    self._patch(obj, "__init__", self._wrap(init, layer, obj.__name__))
                continue
            wrapper = self._wrap(obj, layer, obj.__name__)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is obj:
                        self._patch(ns, attr, wrapper)
        return {k: sorted(v) for k, v in traced_names.items()}

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output

    def write(self, path) -> None:
        keys = ("id", "name", "layer", "thread", "parent", "op", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _union_ns(intervals) -> int:
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTable:
    """Per-layer aggregates over a finished trace."""

    def __init__(self, spans: list[list]):
        self.by_id = {rec[0]: rec for rec in spans}
        self.children: dict[int, list[list]] = defaultdict(list)
        for rec in spans:
            if rec[4] is not None:
                self.children[rec[4]].append(rec)

    def _top(self, rec, layer: str):
        """The outermost strict ancestor of a span in ``layer``, or None."""
        top = None
        while rec[4] is not None:
            rec = self.by_id[rec[4]]
            if rec[2] == layer:
                top = rec
        return top

    def self_ns(self, rec) -> int:
        """Duration minus the part of it covered by child spans."""
        lo, hi = rec[6], rec[7]
        covered = _union_ns(
            (max(lo, c[6]), min(hi, c[7])) for c in self.children.get(rec[0], ()) if c[7] > lo and c[6] < hi
        )
        return (hi - lo) - covered

    def layer_self_ns(self, layer: str) -> int:
        return sum(self.self_ns(r) for r in self.by_id.values() if r[2] == layer)

    def named(self, layer: str, name: str) -> list[list]:
        return [r for r in self.by_id.values() if r[2] == layer and r[1] == name]

    def passes(self, layer: str, markers) -> list[list]:
        """Outermost spans of ``layer`` that are, or enclose, a marker span.

        ``markers`` holds (layer, name) pairs of the functions that do the
        layer's work, so that argument helpers of the layer do not count.
        """
        tops = {}
        for rec in self.by_id.values():
            if (rec[2], rec[1]) in markers:
                top = self._top(rec, layer) or (rec if rec[2] == layer else None)
                if top is not None:
                    tops[top[0]] = top
        return list(tops.values())

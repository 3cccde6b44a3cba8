"""Spans around the public functions of each powerctl module.

``Tracer.instrument`` replaces every public function (and public method of
a public class) defined in a powerctl module with a wrapper that records a
span, and rebinds the names other modules took with ``from ... import``
(``policy.threshold_bias_batch``, ``finite.build_tables`` and the like).
A span is recorded only where a call crosses a layer boundary, i.e. when
the innermost open span belongs to another module (or to the benchmark);
calls inside one module, such as the per-stage ``fluid.instantaneous_cost``
or the per-slot ``finite.stage_cost``, run through without a span.

Spans live in memory as tuples and are written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time

LAYERS = ("model", "kernel", "equilibrium", "fluid", "policy", "finite", "cli")


class Tracer:
    """In-memory span recorder.

    A span is ``(id, name, layer, start, end, parent, run, cpu)``: wall
    times from ``perf_counter``, the id of the span that caused it, the id
    of the benchmark operation it belongs to, and the thread CPU seconds
    spent inside it. A worker thread's outermost span takes as parent the
    span the main thread has open, so the thread pool of ``compare`` nests
    under the ``cli`` call that started it.
    """

    def __init__(self):
        self.spans = []
        self.run = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append((span_id, layer))
        return stack, span_id, parent

    def call(self, name, layer, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the given layer."""
        stack, span_id, parent = self._enter(layer)
        run = self.run
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            self.spans.append((span_id, name, layer, t0, t1, parent, run, cpu))

    def wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            return tracer.call(name, layer, fn, *args, **kwargs)

        return traced

    def instrument(self):
        """Wrap the public functions of every powerctl module, once."""
        modules = {layer: importlib.import_module(f"powerctl.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            name = f"{layer}.{attr}.{meth_name}"
                            setattr(obj, meth_name, self.wrap(meth, name, layer))
        # rebind module globals, including names bound by ``from ... import``
        for mod in [importlib.import_module("powerctl"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def write(self, path):
        """Write the spans as JSON lines, in the order they ended."""
        keys = ("id", "name", "layer", "start", "end", "parent", "run", "cpu")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union(intervals):
    """Disjoint, sorted cover of the given (start, end) intervals."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _subtract(lo, hi, cover):
    """Parts of [lo, hi] not covered by the disjoint sorted intervals."""
    out, cur = [], lo
    for c_lo, c_hi in cover:
        if c_hi <= cur or c_lo >= hi:
            continue
        if c_lo > cur:
            out.append((cur, c_lo))
        cur = max(cur, c_hi)
    if cur < hi:
        out.append((cur, hi))
    return out


def self_seconds(spans):
    """Wall seconds in which each layer ran its own code.

    A span's self intervals are its interval minus the union of its
    children's; a layer's self time is the length of the union of its
    spans' self intervals, so spans that overlap in threads count once.
    """
    children = {}
    for span in spans:
        children.setdefault(span[5], []).append((span[3], span[4]))
    per_layer = {}
    for span_id, _name, layer, start, end, *_ in spans:
        cover = _union(children.get(span_id, ()))
        per_layer.setdefault(layer, []).extend(_subtract(start, end, cover))
    return {
        layer: sum(hi - lo for lo, hi in _union(parts)) for layer, parts in per_layer.items()
    }

"""Layer spans for the traced run.

For the length of a traced run, every public function and method of the
package's layer modules is replaced by a wrapper.  Each call adds one to
the callee's count.  A call whose caller sits in another layer (or is the
benchmark itself) also records a span: callee, parent span, start and end.
A call within the same layer records no span, so its time stays in the
span that is already open for that layer.

Spans live in flat arrays while the run goes on and are written out when
it ends.  A layer's self time is the duration of its spans minus the part
covered by their child spans, so the self times of all layers, the
benchmark's own layer included, add up to the duration of the root spans.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from array import array
from contextlib import contextmanager

LAYERS = ("words", "kleinpi", "braid", "kernel", "classifier", "witness", "certificate", "cli")
BENCH = "bench"

# Dunder methods that are part of a class's public surface: construction,
# the group and module operations, equality and printing.
_DUNDERS = frozenset(
    ("__init__", "__call__", "__eq__", "__str__", "__getitem__", "__mul__",
     "__rmul__", "__pow__", "__add__", "__sub__", "__neg__", "__matmul__")
)


def _public_callables(module):
    """(owner, name, raw attribute, function, qualname) for each public
    function defined in module and each public method of its classes."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, obj, name
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if inspect.isfunction(fn):
                    yield obj, attr, raw, fn, f"{name}.{attr}"


class Tracer:
    """Counts calls into each layer and records spans where layers change.

    ``hooks`` maps a qualified name such as ``"words.Word.__init__"`` to a
    callable ``hook(caller, args, result)`` run after each call of that
    function; ``caller`` is the layer the call came from.
    """

    def __init__(self, package, hooks=None):
        self.package = package
        self.hooks = dict(hooks or {})
        self.names = [f"{BENCH}.op"]
        self.layer_of = [BENCH]
        self.counts = [0]
        self.span_func = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._layers = [None]
        self._open = [-1]
        self._patched = []

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, fid, layer, hook):
        counts, layers, opened = self.counts, self._layers, self._open
        span_func, span_parent = self.span_func, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            counts[fid] += 1
            caller = layers[-1]
            if caller == layer:
                result = fn(*args, **kwargs)
            else:
                idx = len(span_end)
                span_func.append(fid)
                span_parent.append(opened[-1])
                span_end.append(0)
                layers.append(layer)
                opened.append(idx)
                span_start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_end[idx] = clock()
                    layers.pop()
                    opened.pop()
            if hook is not None:
                hook(caller, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _module_layers(self):
        for layer in LAYERS:
            module = getattr(self.package, layer, None)
            if module is not None:
                yield layer, module

    @contextmanager
    def installed(self):
        """Patch every layer's public callables, and every other module
        attribute bound to one of them, for the duration of the block."""
        modules = [m for m in vars(self.package).values() if inspect.ismodule(m)]
        modules.append(self.package)
        try:
            for layer, module in self._module_layers():
                for owner, name, raw, fn, qualname in _public_callables(module):
                    full = f"{layer}.{qualname}"
                    fid = len(self.names)
                    self.names.append(full)
                    self.layer_of.append(layer)
                    self.counts.append(0)
                    wrapped = self._wrap(fn, fid, layer, self.hooks.get(full))
                    new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                    self._patch(owner, name, raw, new)
                    if owner is module:
                        # re-imports such as ``from .braid import lsigma``
                        for other in modules:
                            for alias, value in list(vars(other).items()):
                                if value is fn and (other, alias) != (owner, name):
                                    self._patch(other, alias, fn, wrapped)
            yield self
        finally:
            for owner, name, raw in reversed(self._patched):
                setattr(owner, name, raw)
            self._patched.clear()

    def _patch(self, owner, name, raw, new):
        self._patched.append((owner, name, raw))
        setattr(owner, name, new)

    def root(self, fn):
        """fn wrapped as one benchmark-level operation: the root span."""
        return self._wrap(fn, 0, BENCH, None)

    # -- results -----------------------------------------------------------

    def fid(self, full_name):
        try:
            return self.names.index(full_name)
        except ValueError:
            return None

    def count(self, full_name):
        fid = self.fid(full_name)
        return 0 if fid is None else self.counts[fid]

    def spans(self):
        return len(self.span_end)

    def summary(self):
        """Per-layer call counts and self seconds, and inclusive seconds of
        each function's spans, computed from the recorded spans."""
        start, end, parent, func = self.span_start, self.span_end, self.span_parent, self.span_func
        n = len(end)
        covered = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        self_by_func = [0] * len(self.names)
        incl_ns = [0] * len(self.names)
        for i in range(n):
            f = func[i]
            d = end[i] - start[i]
            self_by_func[f] += d - covered[i]
            incl_ns[f] += d
        self_ns = {}
        for f, ns in enumerate(self_by_func):
            self_ns[self.layer_of[f]] = self_ns.get(self.layer_of[f], 0) + ns
        calls = {}
        for f, c in enumerate(self.counts):
            calls[self.layer_of[f]] = calls.get(self.layer_of[f], 0) + c
        return {
            "calls": calls,
            "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
            "incl_s": {self.names[f]: ns / 1e9 for f, ns in enumerate(incl_ns) if ns},
        }

    def write(self, directory, stem):
        """Write the spans as raw arrays plus a JSON index naming the
        functions and array layouts."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, stem + ".bin"), "wb") as fh:
            for arr in (self.span_func, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        index = {
            "spans": self.spans(),
            "arrays": [["func", "i"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]],
            "functions": [
                {"name": name, "layer": layer, "calls": calls}
                for name, layer, calls in zip(self.names, self.layer_of, self.counts)
            ],
        }
        with open(os.path.join(directory, stem + ".json"), "w") as fh:
            json.dump(index, fh)

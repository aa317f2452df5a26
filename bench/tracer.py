"""Outside-in tracing of the spinlayer package.

`Tracer.install` wraps every public function of each layer module and
rebinds the wrapper wherever a module of the package holds the original
under some name (so both `maxwell.fdtd_step` and `dynamics.fdtd_step` are
traced, since callers resolve those names at call time).  Each call
records a span [name, parent index, start, end]; `summarize` folds the
spans into per-function and per-module counts, total and self times.
"""

import functools
import importlib
import inspect
import time

PACKAGE = "spinlayer"


class Tracer:
    def __init__(self, layers):
        self.layers = tuple(layers)
        self.spans = []
        self._stack = []
        self._patched = []

    def install(self):
        modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in self.layers]
        holders = modules + [importlib.import_module(PACKAGE)]
        for mod, short in zip(modules, self.layers):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, name, fn))
                            setattr(holder, name, wrapper)

    def uninstall(self):
        for holder, name, fn in reversed(self._patched):
            setattr(holder, name, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced


def summarize(spans, within=None):
    """Fold spans into {"names": {name: [calls, total_s, self_s, first_s]},
    "pairs": {"parent>child": total_s}, "modules": {mod: [calls, total_s,
    self_s]}}.

    With `within`, only spans inside a span of that name count (the span
    itself included).  A module's total counts its outermost spans only,
    so nested calls within one module are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[3] - span[2]
    inside = [within is None] * len(spans)
    if within is not None:
        for i, span in enumerate(spans):
            inside[i] = span[0] == within or (span[1] >= 0 and inside[span[1]])
    out = {"names": {}, "pairs": {}, "modules": {}}
    for i, (name, parent, start, end) in enumerate(spans):
        if not inside[i]:
            continue
        dur = end - start
        own = dur - child_time[i]
        entry = out["names"].setdefault(name, [0, 0.0, 0.0, dur])
        entry[0] += 1
        entry[1] += dur
        entry[2] += own
        mod = name.split(".", 1)[0]
        parent_name = spans[parent][0] if parent >= 0 else ""
        m = out["modules"].setdefault(mod, [0, 0.0, 0.0])
        m[0] += 1
        m[2] += own
        if parent_name.split(".", 1)[0] != mod:
            m[1] += dur
        key = f"{parent_name}>{name}"
        out["pairs"][key] = out["pairs"].get(key, 0.0) + dur
    return out

"""Span tracing of the public functions of colorplex's layer modules.

``Tracer.install`` wraps every public function defined in a layer module and
rebinds the wrapper wherever the original is bound inside the package,
including names imported into other modules (``cli`` imports most layers
by name), so nested calls become child spans.  Modules are reached through
``importlib``: ``colorplex.homology`` as an attribute is the function of
that name, not the module.  Spans stay in memory as
``(name, start, end, parent index, pass id)`` until written out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("cli", "triangulation", "builders", "holonomy", "perms",
          "homology", "circles", "gamma", "gems")


def _smith_sizes(args, result):
    return {"nnz": sum(len(row) for row in args[0]), "rank": len(result)}


# Work counted per call, for the layers whose cost depends on size.
SIZERS = {"homology.smith_invariant_factors": _smith_sizes}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.sizes: list = []  # (pass id, name, {counter: value})
        self.pass_id = 0
        self._stack: list = []
        self._restore: list = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"colorplex.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != "colorplex" and not module_name.startswith("colorplex."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.pass_id)
            if sizer is not None:
                self.sizes.append((self.pass_id, name, sizer(args, result)))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "sizes": self.sizes}, fh)


def totals(spans, sizes, pass_of=None) -> dict:
    """Per pass: name -> [self seconds, calls, and any size counters].

    Self time is a span's duration minus the durations of its direct
    children.  ``pass_of`` overrides the recorded pass id (spans read back
    from a traced CLI process carry that process's own ids).
    """
    self_time = [end - start for _name, start, end, _parent, _pass in spans]
    for _name, start, end, parent, _pass in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    out: dict = {}
    for (name, _start, _end, _parent, pass_id), own in zip(spans, self_time):
        entry = out.setdefault(pass_of if pass_of is not None else pass_id, {}) \
            .setdefault(name, {"s": 0.0, "calls": 0})
        entry["s"] += own
        entry["calls"] += 1
    for pass_id, name, counters in sizes:
        entry = out[pass_of if pass_of is not None else pass_id][name]
        for key, value in counters.items():
            entry[key] = entry.get(key, 0) + value
    return out

"""Span tracing of gkinv's public functions, installed from outside.

Every public function of the measured modules is wrapped, and the wrapper is
patched into every ``gkinv`` module that holds the function under some name,
so calls through ``from .padic import valuation`` are seen as well as calls
through ``linalg.matmul``.  Each call records one span (name, start, end,
parent span, form id) in flat arrays; the arrays stay in memory until the run
ends and are then written out whole.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array


def self_times(parent, start, end) -> list[float]:
    """Self time of every span: its duration minus the durations of its
    children.  Spans of one thread nest, so the children of a span cover
    disjoint parts of its interval."""
    own = [e - s for s, e in zip(start, end)]
    for i, par in enumerate(parent):
        if par >= 0:
            own[par] -= end[i] - start[i]
    return own


def root_time(parent, start, end, weights=None) -> float:
    """Total duration of the spans that have no parent, each multiplied by
    its weight when weights are given."""
    weights = weights if weights is not None else [1.0] * len(parent)
    return sum((e - s) * w for par, s, e, w in zip(parent, start, end, weights) if par < 0)


def public_functions(module) -> dict[str, types.FunctionType]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


def _matmul_madds(a, b, *_args, **_kw) -> int:
    return len(a) * len(b) * len(b[0]) if b else 0


# Work counters computed from a call's arguments, by span name.
COUNTERS = {"linalg.matmul": _matmul_madds}


class Tracer:
    def __init__(self, layers, package: str = "gkinv"):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.form = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.form_id = -1
        self._stack: list[int] = []
        wrappers = {}
        for layer in layers:
            module = sys.modules[f"{package}.{layer}"]
            for fname, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(fn, f"{layer}.{fname}")
        self._patches = [
            (module, attr, obj, wrappers[obj])
            for mname, module in sorted(sys.modules.items())
            if module is not None and (mname == package or mname.startswith(package + "."))
            for attr, obj in list(vars(module).items())
            if isinstance(obj, types.FunctionType) and obj in wrappers
        ]

    def _wrap(self, fn, label: str):
        nid = len(self.labels)
        self.labels.append(label)
        count = COUNTERS.get(label)
        if count is not None:
            self.counts[label] = 0
        name, parent, form = self.name, self.parent, self.form
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kw):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            form.append(self.form_id)
            end.append(0.0)
            if count is not None:
                self.counts[label] += count(*args, **kw)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kw)
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def weights(self, per_form: dict[int, float]) -> list[float]:
        """Per-span weights from per-form factors."""
        return [per_form[f] for f in self.form]

    def totals(self, weights=None) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per wrapped function, zero for unused ones;
        each span's self time multiplied by its weight when given."""
        weights = weights if weights is not None else [1.0] * len(self.name)
        calls = [0] * len(self.labels)
        own = [0.0] * len(self.labels)
        for nid, t, w in zip(self.name, self_times(self.parent, self.start, self.end), weights):
            calls[nid] += 1
            own[nid] += t * w
        return {label: (calls[i], own[i]) for i, label in enumerate(self.labels)}

    def write(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.labels,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "form": self.form.tolist(),
                    "start_us": [round((t - t0) * 1e6, 3) for t in self.start],
                    "end_us": [round((t - t0) * 1e6, 3) for t in self.end],
                },
                fh,
                separators=(",", ":"),
            )

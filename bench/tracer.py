"""Outside-in tracer: wraps the public functions of each detdyn module from
the benchmark's own code and records one span per call.

A span is [name, layer, start, end, parent index, op id, error class].
Cross-module calls inside the package look the callee up as a module
attribute (``kernel.det``) and calls inside a module look it up as a module
global, so both reach the wrappers. Not seen: private helpers called
directly (``kernel._lu`` from ``spectral.secular_value``,
``kernel._adjugate_any`` from ``charpoly_perturbed_eval``,
``kernel._jacobi_eigh`` from ``contribution_analysis`` and
``reach_ellipse``), whose time counts as their caller's self time, and
names re-exported into another module (``detdyn.det``,
``control.default_eps_schedule``), which stay bound to the original.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from contextlib import contextmanager

LAYERS = ("kernel", "updates", "drazin", "spectral", "control", "cli")


def public_functions():
    """(module, name, function) for every public function each layer defines."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module("detdyn." + layer)
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                out.append((mod, name, obj))
    return out


class Tracer:
    """Collects spans in memory; ``installed()`` patches the modules for
    the duration of a ``with`` block and always restores them."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._targets = public_functions()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        full = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [full, layer, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self, op: int):
        self.op = op
        try:
            for mod, name, fn in self._targets:
                setattr(mod, name, self._wrap(mod.__name__.split(".")[-1], name, fn))
            yield self
        finally:
            for mod, name, fn in self._targets:
                setattr(mod, name, fn)
            self._stack.clear()

    def unpatched(self) -> bool:
        """True when every wrapped attribute holds its original function."""
        return all(getattr(mod, name) is fn for mod, name, fn in self._targets)

    def add(self, spans, op: int) -> None:
        """Append spans recorded elsewhere (a traced subprocess), re-basing
        their parent indices and tagging them with ``op``."""
        base = len(self.spans)
        for name, layer, start, end, parent, _, err in spans:
            self.spans.append([name, layer, start, end, parent + base if parent >= 0 else -1, op, err])


def self_times(spans) -> list:
    """Per span: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    return [(s[3] - s[2]) - c for s, c in zip(spans, child)]

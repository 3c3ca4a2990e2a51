"""Pieces shared by the benchmark workloads: the call record, seeded
generators, calls routed through the package modules, and accuracy digits.

Every call gets its own generator keyed by (seed, workload, op index), so
the inputs do not depend on how many ops a run manages to complete.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_IDS = {"stream": 1, "singular": 2, "cli": 3}
DIGITS_CAP = 16.0


def child_env() -> dict:
    """Environment for child interpreters: the package is not installed,
    so they import it from ``src``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def op_rng(seed: int, workload: str, index: int, warmup: bool = False):
    """Generator for op ``index``; warm-up ops draw from a disjoint key."""
    key = [int(seed), WORKLOAD_IDS[workload], int(index), 1 if warmup else 0]
    return np.random.default_rng(key)


def via(layer: str, name: str):
    """Return a callable that looks up ``detdyn.<layer>.<name>`` at call time,
    so a traced run sees the wrapper installed on the module attribute."""
    mod = importlib.import_module("detdyn." + layer)

    def call(*args, **kwargs):
        return getattr(mod, name)(*args, **kwargs)

    return call


@dataclass
class Outcome:
    """What the check of one call found.

    ``unsolved`` marks a call whose result is not the right one: it raised
    (or exited non-zero) on a valid input, returned where an error was
    expected, raised the wrong error class or exit code, or returned a
    discrete result (rank, nullity, winding, report bytes) that differs
    from the construction. ``crashed`` marks the subset where the program
    did not answer in its own terms: it raised an exception that is not a
    ``DetDynError``, or a CLI child exited without a report naming one
    (a traceback, a signal, a timeout). ``breach`` marks the subset that
    breaks a public contract of the program: a built hypothesis violation
    absorbed (the call returned, the CLI exited 0) or misreported as
    another ``HypothesisViolation``, or a report that is not byte-identical
    to the in-process run. ``digits`` holds accuracy figures, which never
    count against a call.
    """

    unsolved: bool = False
    crashed: bool = False
    breach: bool = False
    digits: list = field(default_factory=list)
    samples: int | None = None
    error: str | None = None


@dataclass
class Call:
    """One call into the program, with everything needed to check it.

    ``run`` makes the call and returns its result; ``check`` receives the
    result (or None) and the exception the call raised (or None).
    ``updates`` counts the rank-one terms the call hands to ``layer``.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], Outcome]
    payload: bytes
    updates: int = 0
    layer: str = ""


def digits_of(err: float) -> float:
    """-log10 of a relative error, capped at 16 (may be negative)."""
    if not math.isfinite(err):
        return -DIGITS_CAP
    if err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))


def rel_digits(value, ref) -> float:
    ref = complex(ref)
    err = abs(complex(value) - ref)
    return digits_of(err / abs(ref) if ref != 0 else err)


def is_error_of(name: str, base: str = "DetDynError") -> bool:
    """Whether ``name`` names a subclass of ``detdyn.errors.<base>``."""
    errors = importlib.import_module("detdyn.errors")
    cls = getattr(errors, name, None)
    return isinstance(cls, type) and issubclass(cls, getattr(errors, base))


def expect_error(expected: str):
    """Check for a call built to violate a hypothesis: it must raise
    exactly ``expected`` (an exception class name). Returning absorbs the
    violation and another ``HypothesisViolation`` misreports it: both
    breach the contract. Any other error leaves the call unsolved only."""

    def check(result, exc):
        if exc is None:
            return Outcome(unsolved=True, breach=True, error="returned")
        name = type(exc).__name__
        if name != expected:
            return Outcome(unsolved=True, crashed=not is_error_of(name),
                           breach=is_error_of(name, "HypothesisViolation"), error=name)
        return Outcome(error=name)

    return check


def raised(exc) -> Outcome:
    """Outcome for a valid input on which the call raised."""
    name = type(exc).__name__
    return Outcome(unsolved=True, crashed=not is_error_of(name), error=name)


def payload_of(*parts) -> bytes:
    """Canonical bytes of a call's inputs, for the digest and repeat check."""
    out = []
    for p in parts:
        if isinstance(p, np.ndarray):
            out.append(repr(p.shape).encode() + np.ascontiguousarray(p, dtype=float).tobytes())
        elif isinstance(p, (list, tuple)):
            out.append(payload_of(*p))
        else:
            out.append(repr(p).encode())
    return b"|".join(out)

"""In-memory span tracer and the small statistics the benchmark reports.

The tracer replaces chosen functions in every module namespace that binds
them (so ``from .x import f`` call sites are caught too), records one span
per call, and puts every original back when it is uninstalled.  It does
not depend on the package it traces: the caller passes the targets.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "failed")

    def __init__(self, id, parent, name, op, start):
        self.id, self.parent, self.name, self.op = id, parent, name, op
        self.start, self.end, self.failed = start, None, False

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Collects spans and counters for calls into traced functions.

    Args:
        targets: ``{span name: (module, attribute)}``; each named function is
            wrapped wherever a module whose name starts with ``prefix``
            binds that same function object.
        prefix: Module-name prefix of the namespaces to patch.
        counters: ``{span name: fn(args, kwargs, result) -> {counter: n}}``
            run after a successful call; counts are summed per name.
        clock: Time source, replaceable in tests.
    """

    def __init__(self, targets, prefix, counters=None, clock=time.perf_counter):
        self.targets = dict(targets)
        self.prefix = prefix
        self.counter_fns = dict(counters or {})
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.op = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        counter_fn = self.counter_fns.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, self.op, self.clock())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if counter_fn is not None:
                for key, n in counter_fn(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for mod_name, m in list(sys.modules.items())
                   if m is not None and (mod_name == self.prefix
                                         or mod_name.startswith(self.prefix + "."))]
        for name, (module, attr) in self.targets.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> dict:
    """Self time per span id: its duration minus its direct children's.

    Calls are traced in one thread, so children are disjoint and lie
    inside their parent.
    """
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_totals(spans, names) -> dict:
    """``<name>.calls``, ``.total_s`` and ``.self_s`` for every name.

    Names with no span report zeros, so every run lists the same keys.
    """
    own = self_times(spans)
    out = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for s in spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.total_s"] += s.end - s.start
        out[f"{s.name}.self_s"] += own[s.id]
    return out


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sequence")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ops_per_second(completed: int, phase_s: float) -> float:
    """Checked operations completed per second of the timed phase."""
    if phase_s <= 0:
        raise ValueError("timed phase must have positive length")
    return completed / phase_s

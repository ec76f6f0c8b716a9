"""In-memory spans and oracle counters for the traced benchmark pass.

Spans are opened only from the benchmark's own code, around calls into
the library's public functions. Oracle work (objective and gradient
evaluations) is observed through counting copies of a ``SectorFunction``
made with ``dataclasses.replace``; each evaluation is charged to the
innermost span open at the time, whichever thread made it.

A span's self time is its duration minus the time its child spans cover
and minus the oracle time charged to it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from collections import defaultdict

import numpy as np


class Span:
    __slots__ = ("name", "parent", "attrs", "start", "end", "children",
                 "oracle_s", "calls", "points")

    def __init__(self, name: str, parent: "Span | None", attrs: dict):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self.oracle_s = 0.0
        self.calls = defaultdict(int)   # "value" / "grad" -> oracle calls
        self.points = defaultdict(int)  # "value" / "grad" -> points evaluated

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - sum(c.duration for c in self.children) - self.oracle_s

    def total_points(self, kind: str) -> int:
        """Points of ``kind`` charged to this span and all its descendants."""
        return self.points[kind] + sum(c.total_points(kind) for c in self.children)


class Tracer:
    """Records a tree of spans; oracle calls from any thread are charged
    to the innermost span open on the thread that opens spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent, attrs)
        if parent is not None:
            parent.children.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def charge(self, kind: str, points: int, seconds: float) -> None:
        with self._lock:
            if not self._stack:
                return
            s = self._stack[-1]
            s.oracle_s += seconds
            s.calls[kind] += 1
            s.points[kind] += points

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def counting_copy(f, tracer: Tracer):
    """A copy of ``f`` whose oracles report each evaluation to ``tracer``.

    Vectorized (elementwise) callables count one point per array element;
    point-wise callables count one point per call. The gradient evaluation
    that ``SectorFunction`` makes while it is constructed is not counted.
    """
    armed = False

    def wrap(fn, kind, elementwise):
        if fn is None:
            return None

        def counted(x):
            t0 = time.perf_counter()
            out = fn(x)
            dt = time.perf_counter() - t0
            if armed:
                tracer.charge(kind, int(np.size(x)) if elementwise else 1, dt)
            return out

        return counted

    copy = dataclasses.replace(
        f,
        value=wrap(f.value, "value", False),
        gradient=wrap(f.gradient, "grad", False),
        elementwise_value=wrap(f.elementwise_value, "value", True),
        elementwise_gradient=wrap(f.elementwise_gradient, "grad", True),
    )
    armed = True
    return copy


@contextlib.contextmanager
def patched(*replacements):
    """Temporarily set ``(module, attribute, value)`` triples; restore on exit."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in replacements]
    try:
        for mod, name, value in replacements:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)


def spanned(tracer: Tracer, name: str, fn, attrs=None):
    """Wrap ``fn`` so each call runs inside a span; ``attrs(*args, **kw)``
    gives the span's attributes."""

    def call(*args, **kwargs):
        with tracer.span(name, **(attrs(*args, **kwargs) if attrs else {})):
            return fn(*args, **kwargs)

    return call

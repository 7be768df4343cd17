"""Spans recorded around library functions that are patched from outside.

A Tracer replaces chosen attributes of the library's modules and classes
with wrappers that record a span (name, start, end, parent) per call, and
puts every original back when its `with` block ends. Given a counter with
a `flops` attribute (mattn's KernelCounter), each span also records the
FLOPs counted while it was open. Nothing in the library is edited.
"""
from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "flops")

    def __init__(self, name: str, start: float, end: float = math.nan,
                 parent: int = -1, flops: int | None = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 for a root
        self.flops = flops


@contextmanager
def patched(owner, attr: str, make):
    """Set owner.attr to make(original) for the duration of the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Records spans for calls to the targets while it is active.

    `targets` is a list of (owner, attribute, span name); `counted` a list
    of (owner, attribute, count name) whose calls are only counted.
    """

    def __init__(self, targets, counted=(), counter=None,
                 clock=time.perf_counter) -> None:
        self.targets = list(targets)
        self.counted = list(counted)
        self.counter = counter
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """`fn` wrapped so that every call records one span."""
        spans, stack, clock, counter = (self.spans, self._stack, self.clock,
                                        self.counter)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = Span(name, clock(), parent=stack[-1] if stack else -1)
            f0 = counter.flops if counter is not None else 0
            stack.append(len(spans))
            spans.append(s)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                if counter is not None:
                    s.flops = counter.flops - f0
                s.end = clock()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name in self.targets:
                self._install(owner, attr,
                              self.span(name, owner.__dict__[attr]))
            for owner, attr, name in self.counted:
                self._install(owner, attr,
                              self._count(name, owner.__dict__[attr]))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every original, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic

def _clip(start: float, end: float, window) -> float:
    lo, hi = window
    return max(0.0, min(end, hi) - max(start, lo))


def _covered(intervals, window) -> float:
    """Length of the union of the intervals inside the window."""
    lo, hi = window
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def inclusive_times(spans: list[Span], window) -> dict[str, float]:
    """Seconds each span name was open inside the window."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + _clip(s.start, s.end, window)
    return out


def self_times(spans: list[Span], window) -> dict[str, float]:
    """Seconds inside the window each span name spent outside its children.

    A span's self time is its duration minus the part of that interval its
    child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        own = (max(s.start, window[0]), min(s.end, window[1]))
        if own[1] <= own[0]:
            out.setdefault(s.name, 0.0)
            continue
        busy = _covered(children.get(i, ()), own)
        out[s.name] = out.get(s.name, 0.0) + (own[1] - own[0]) - busy
    return out


def flops_by_name(spans: list[Span]) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        if s.flops is not None:
            out[s.name] = out.get(s.name, 0) + s.flops
    return out


def children_flops(spans: list[Span], parent_name: str,
                   names) -> list[int]:
    """Per span called parent_name, the FLOPs of its direct children whose
    names are in `names`."""
    totals = {i: 0 for i, s in enumerate(spans) if s.name == parent_name}
    for s in spans:
        if s.parent in totals and s.name in names:
            totals[s.parent] += s.flops or 0
    return [totals[i] for i in sorted(totals)]


def percentile(values: list[float], q: float):
    """Nearest-rank q-th percentile, or None when fewer than ten samples
    lie above it."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]

"""In-memory span tracing for the traced benchmark run.

The tracer wraps public functions and layer methods from the outside: it
replaces a module or class attribute with a wrapper that records a span
(name, start, end, parent) around each call, and puts the original back
on `restore`. Nothing in the package is edited. Spans stay in memory;
the benchmark turns them into self times and per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while `recording` is set; counts ride along by name."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.recording = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper. ``on_result(counts,
        args, result)`` runs after each recorded call, to feed counters."""
        # a class's own entry, so that restore puts back exactly what was there
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """(self seconds, calls) per span name.

    A span's self time is its duration minus the part of its interval
    that its direct children cover. Children of one parent may overlap
    (they never do on one thread, but a hand-built tree can), so their
    covered time is the length of the union of their intervals, clipped
    to the parent.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.name][0] += s.duration - covered
        out[s.name][1] += 1
    return {name: (v[0], v[1]) for name, v in out.items()}


class SpanIndex:
    """Spans grouped by name, for summing the time of selected layers."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)

    def _lineage(self, s: Span) -> list[str]:
        out = []
        p = s.parent
        while p >= 0:
            out.append(self.spans[p].name)
            p = self.spans[p].parent
        return out

    def total(self, names, parent_names=(), ancestor: str | None = None) -> float:
        """Summed duration of spans whose name is in ``names``.

        ``parent_names`` keeps only spans whose direct parent has one of
        those names; ``ancestor`` keeps only spans with an ancestor of
        that name. A span nested under another selected span is not
        counted twice.
        """
        names = set(names)
        total = 0.0
        for name in names:
            for s in self.by_name.get(name, ()):
                lineage = self._lineage(s)
                if parent_names and not (lineage and lineage[0] in parent_names):
                    continue
                if ancestor is not None and ancestor not in lineage:
                    continue
                if names.intersection(lineage):
                    continue
                total += s.duration
        return total

"""In-memory spans for the traced benchmark run, and self times derived
from them.

A span records a name (``<layer>.<what>``), start and end on the
``time.perf_counter`` clock, the index of the span that was open when it
started, and a trace id shared by every span of one operation (one
direction solve, one box).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects nested spans opened with :meth:`span`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        parent = self._open[-1] if self._open else None
        if trace_id is None and parent is not None:
            trace_id = self.spans[parent].trace_id
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent, trace_id))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def trace_id(self) -> str | None:
        """The trace id of the innermost open span."""
        return self.spans[self._open[-1]].trace_id if self._open else None

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children may overlap each other or outlast the parent)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _covered(s.start, s.end, children.get(i, ()))
            for i, s in enumerate(spans)]


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)

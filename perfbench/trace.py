"""In-memory span recorder for the benchmark's traced runs.

A span has a name, a start and end (epoch seconds, ``time.time()``), the
id of the query it belongs to, and the index of its parent span. Spans stay
in memory and are written out once, when the run ends. Spans built from
Structured Streaming progress events use the same clock, because Spark
stamps progress with the JVM's wall clock.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    query_id: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``span`` opens a child of the innermost open one."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query_id: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, query_id, time.time(), 0.0, parent))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._open.pop()
            self.spans[idx].end = time.time()

    def add(self, name: str, query_id: str, start: float, end: float,
            parent: int | None) -> int:
        """Record a span measured elsewhere (e.g. a streaming micro-batch)."""
        self.spans.append(Span(name, query_id, start, end, parent))
        return len(self.spans) - 1

    def extend(self, spans: list[dict]) -> None:
        """Append spans recorded by another process, re-basing parent ids."""
        base = len(self.spans)
        for s in spans:
            p = s["parent"]
            self.spans.append(Span(s["name"], s["query_id"], s["start"], s["end"],
                                   None if p is None else p + base))

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval, so a child stamped by
    a coarser clock cannot make its parent's self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    return [
        s.duration - _covered([iv for iv in children.get(i, []) if iv[1] > iv[0]])
        for i, s in enumerate(spans)
    ]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + t
    return out

"""The benchmark's own spans, recorded around calls into each layer.

A span has a name, a start, an end, a parent and a request id.  Spans stay
in memory during the run and are written out once, at the end.  Self time
is a span's duration minus the part of its interval its children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float],
            children: Sequence[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of children."""
    low, high = interval
    clipped = sorted((max(low, start), min(high, end))
                     for start, end in children if end > low and start < high)
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in clipped:
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


class Tracer:
    """Collects spans; one instance per run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    def record(self, name: str, start: float, end: float, request: int,
               parent: Optional[int] = None, **notes: object) -> Span:
        """Add a span measured by the caller."""
        span = Span(len(self.spans), name, start, end, parent, request,
                    dict(notes))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, request: int, parent: Optional[int] = None,
             **notes: object) -> Iterator[Span]:
        """Time a block; nested blocks become its children.

        ``parent`` names the parent of an outermost block explicitly, for
        spans caused by a span recorded earlier.
        """
        if self._open:
            parent = self._open[-1]
        span = self.record(name, time.perf_counter(), 0.0, request, parent,
                           **notes)
        self._open.append(span.span_id)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def children(self) -> Dict[int, List[Span]]:
        by_parent: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                by_parent[span.parent].append(span)
        return by_parent

    def self_times(self) -> Dict[int, float]:
        """Self time of every span, by span id."""
        by_parent = self.children()
        return {span.span_id: span.duration - covered(
                    (span.start, span.end),
                    [(child.start, child.end)
                     for child in by_parent.get(span.span_id, ())])
                for span in self.spans}

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def mean_ms(self, name: str) -> float:
        """Mean duration in ms of the spans called ``name`` (0 if none)."""
        spans = self.by_name(name)
        if not spans:
            return 0.0
        return 1000.0 * sum(span.duration for span in spans) / len(spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self_times = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"id": span.span_id, "name": span.name,
                        "start": span.start, "end": span.end,
                        "parent": span.parent, "request": span.request,
                        "self_ms": 1000.0 * self_times[span.span_id],
                        **({"notes": span.notes} if span.notes else {})}
                       for span in self.spans], handle)

"""In-memory span recorder for the benchmark's traced runs.

The benchmark wraps every call it makes into a layer of the program in
a span: a name, a start, an end, the span that contained it, and the id
of the pass or request it belongs to.  Spans stay in memory and are
written out as JSON once the workload ends.  With recording off,
:meth:`SpanRecorder.span` costs one attribute check and records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass
class Span:
    id: int
    name: str
    trace_id: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanRecorder:
    """Records spans of one workload run; see the module docstring."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_trace = 0

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A span that starts a new pass or request (a new trace id)."""
        self._next_trace += 1
        with self.span(name, trace_id=self._next_trace):
            yield

    @contextmanager
    def span(self, name: str, trace_id: int | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else 0
        node = Span(
            id=len(self.spans),
            name=name,
            trace_id=trace_id,
            parent=parent.id if parent is not None else None,
            start=time.perf_counter(),
        )
        self.spans.append(node)
        self._stack.append(node)
        try:
            yield
        finally:
            node.end = time.perf_counter()
            self._stack.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, span: Span) -> float:
        """The span's duration minus the part its children cover."""
        covered = _covered([(c.start, c.end) for c in self.children(span)])
        return span.seconds - covered

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def unaccounted(self, root_name: str) -> tuple[float, float]:
        """(mean uncovered seconds per root, uncovered share of root time)
        over the roots called ``root_name``: time inside a pass or request
        that no layer span covers."""
        roots = self.roots(root_name)
        if not roots:
            return 0.0, 0.0
        uncovered = sum(self.self_seconds(r) for r in roots)
        total = sum(r.seconds for r in roots)
        return uncovered / len(roots), uncovered / total if total else 0.0

    def write(self, path: str) -> None:
        records = []
        for s in self.spans:
            record = asdict(s)
            record["seconds"] = s.seconds
            record["self_seconds"] = self.self_seconds(s)
            records.append(record)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records}, fh, indent=1)

"""Spans recorded in memory around the benchmark's calls into fsconv.

A span holds a name, a start and an end (perf_counter_ns), the span that
encloses it, and a group id shared by every span of one pass, one sweep
geometry or one tooling step. Coarse spans (passes, operations and engine
calls) feed the end-to-end metrics and are always recorded. Detail spans are
recorded only while tracing is on; the workloads also make their extra
stage-splitting calls only then.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    group: str
    name: str
    start_ns: int
    end_ns: int = 0

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class _Off:
    """Stand-in yielded for a detail span while tracing is off."""

    ms = 0.0


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.group = "setup"
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, detail: bool = False):
        if detail and not self.trace:
            yield _Off
            return
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, self.group, name, time.perf_counter_ns())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part covered by
        child spans (children never overlap: calls are sequential)."""
        covered = defaultdict(int)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end_ns - s.start_ns
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end_ns - s.start_ns - covered[s.id]) / 1e6
        return dict(out)

    def dump(self) -> list[list]:
        return [[s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns] for s in self.spans]

"""Spans around the package's public functions, recorded from outside.

Wrappers are put in place with `unittest.mock.patch.object`, which puts the
original back on exit. The wrapper goes on the name the caller looks up:
`harness` binds `train`, `prune` and `consistency_report` at import time, so
tracing the grid means wrapping `harness.train`, not `gcn.train`.

A `Tracer` keeps spans in memory while `recording` is set. Each span has a
name, start and end (perf_counter seconds), the index of its parent span and
the id of the benchmark operation that caused it. Counts read off arguments
and results at the same boundaries go into `counts`.
"""

from __future__ import annotations

import contextlib
import functools
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

MIB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    recording: bool = False
    op: int = 0
    _stack: list[int] = field(default_factory=list)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    @contextlib.contextmanager
    def operation(self):
        """Context for one benchmark operation; its spans share one id."""
        self.op += 1
        yield self.op

    def traced(self, name: str, inspect=None, measure_memory: bool = False):
        """Decorator that records a span for each call made while recording.

        `inspect(tracer, args, kwargs, result, error)` runs after the span
        closes, so the counts it reads do not bill the span itself.
        """

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.recording:
                    return fn(*args, **kwargs)
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                span = Span(name, perf_counter(), 0.0, parent, self.op)
                self.spans.append(span)
                self._stack.append(index)
                started = False
                if measure_memory:
                    started = not tracemalloc.is_tracing()
                    if started:
                        tracemalloc.start()
                    tracemalloc.reset_peak()
                result = error = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except Exception as exc:
                    error = exc
                    raise
                finally:
                    span.end = perf_counter()
                    self._stack.pop()
                    if measure_memory:
                        self.peak(name + ".peak_mib", tracemalloc.get_traced_memory()[1] / MIB)
                        if started:
                            tracemalloc.stop()
                    if inspect is not None:
                        inspect(self, args, kwargs, result, error)

            return wrapper

        return make


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and total self time.

    Calls of a name nested inside a span of another name are also counted
    under "<name><parent name": `topology.consistency_report<topology.trim_to_consistent`
    holds the reports that `trim_to_consistent` makes for itself.
    """
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        keys = [span.name]
        if span.parent is not None:
            keys.append(f"{span.name}<{spans[span.parent].name}")
        for key in keys:
            entry = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += own
    return out

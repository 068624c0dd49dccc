"""Pure helpers of the benchmark: percentiles, span self time, tallies.

Nothing here imports the program; the tests in ``perfbench/tests``
exercise these rules directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; otherwise one slow sample would decide it.
MIN_BEYOND = 10


def percentile(values: Iterable[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return math.floor(count * (100 - q) / 100 + 1e-9)


def tail_percentile(values: list[float], q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when too few lie beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


class Span(NamedTuple):
    """One recorded call: wall-clock interval plus its causing span."""

    name: str
    start: float
    end: float
    span_id: str
    parent: str | None
    pid: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        """Length of the span in seconds."""
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], low: float,
            high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, low), min(b, high))
        for a, b in intervals
        if min(b, high) > max(a, low)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """span id -> its duration minus the part its child spans cover.

    Children may come from other processes (a forked worker's spans
    name the span that was open in the parent when it forked), and may
    overlap each other, so the covered part is an interval union.
    """
    spans = list(spans)
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.span_id: span.duration
        - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


@dataclass
class Tally:
    """Ops attempted and failed, with a reason for every failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, problems) -> None:
        """Count one op; it failed when its check found ``problems``."""
        problems = list(problems)
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)

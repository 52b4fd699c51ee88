"""The harness arithmetic: quantiles, the ladder rule, span self time.

Kept free of I/O and of ``repro`` so ``test_stats.py`` can pin every rule
on synthetic input.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# the decision-latency limit the ladder holds p99 to: the batch-time tail
# alone reaches 150-250 ms far below saturation, so a 250 ms limit would
# measure that tail instead of where the daemon stops keeping up
P99_LIMIT_MS = 500.0
LATE_BOUND_MS = 100.0  # a step whose generator ran later than this is invalid
GROWTH_SHARE = 0.05  # backlog growing faster than this share of the rate


@dataclass(frozen=True)
class Quantile:
    """A nearest-rank quantile with the sample it came from."""

    value: float
    samples: int
    beyond: int  # samples strictly above the quantile's rank


def quantile(values: Sequence[float], q: float) -> Quantile:
    """Nearest-rank quantile: the ``ceil(q * n)``-th smallest value."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n - 1e-9))
    return Quantile(value=ordered[rank - 1], samples=n, beyond=n - rank)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def backlog_slope(samples: Sequence[Tuple[float, int]]) -> float:
    """Least-squares slope (requests/s) of in-flight depth over time."""
    if len(samples) < 2:
        return 0.0
    n = len(samples)
    mt = sum(t for t, _d in samples) / n
    md = sum(d for _t, d in samples) / n
    var = sum((t - mt) ** 2 for t, _d in samples)
    if var == 0.0:
        return 0.0
    return sum((t - mt) * (d - md) for t, d in samples) / var


@dataclass(frozen=True)
class StepVerdict:
    rate: float
    valid: bool  # the generator kept to its own schedule
    passed: bool  # valid, no failures, p99 within limit, no growing backlog
    p99_ms: float
    slope: float
    reason: str


def judge_step(
    rate: float,
    latencies_ms: Sequence[float],
    failed: int,
    late_ms_max: float,
    depth_samples: Sequence[Tuple[float, int]],
    sending_seconds: float,
) -> StepVerdict:
    """The ladder rule for one fixed-rate step.

    The backlog trend is fitted to the depth samples from the second third
    of the sending period on: the first third holds the ramp from an empty
    queue to its steady depth, and the drain after sending always shrinks
    the backlog.
    """
    slope = backlog_slope([
        s for s in depth_samples
        if sending_seconds / 3 <= s[0] <= sending_seconds
    ])
    p99 = quantile(latencies_ms, 0.99).value if latencies_ms else math.inf
    if late_ms_max > LATE_BOUND_MS:
        return StepVerdict(rate, False, False, p99, slope,
                           f"generator {late_ms_max:.1f} ms late")
    if failed:
        return StepVerdict(rate, True, False, p99, slope, f"{failed} failed")
    if p99 > P99_LIMIT_MS:
        return StepVerdict(rate, True, False, p99, slope, f"p99 {p99:.1f} ms")
    if slope > GROWTH_SHARE * rate:
        return StepVerdict(rate, True, False, p99, slope,
                           f"backlog grows {slope:.1f}/s")
    return StepVerdict(rate, True, True, p99, slope, "ok")


def highest_passing(lo: int, hi: int, passes: Callable[[int], bool]) -> int:
    """Bisect a ladder for its highest passing rung.

    ``lo`` is known to pass and ``hi`` is known to fail (or lies past the
    top); the rungs in between are assumed to pass up to some point and
    fail above it, so about ``log2(hi - lo)`` of them are measured.
    """
    while hi - lo > 1:
        rung = (lo + hi) // 2
        if passes(rung):
            lo = rung
        else:
            hi = rung
    return lo


# -- spans ---------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    batch: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children[span.id], span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)


def coverage(spans: Sequence[Span], root: str) -> float:
    """Share of the ``root`` spans' time that timed child layers account
    for: one minus the roots' own self time over their duration."""
    roots = [s for s in spans if s.name == root]
    total = sum(s.duration for s in roots)
    if total <= 0.0:
        return 0.0
    own = self_times(spans)
    return 1.0 - sum(own[s.id] for s in roots) / total

"""Summary statistics the benchmark reports: percentiles and span self time."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND_TAIL = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linearly interpolated.

    Refuses with :class:`TooFewSamples` unless at least
    :data:`MIN_BEYOND_TAIL` samples lie beyond the percentile, so a p90
    needs 100 samples and a p50 needs 20.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    count = len(values)
    if count * (100 - q) / 100 < MIN_BEYOND_TAIL:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_BEYOND_TAIL} samples beyond it; have {count} in all"
        )
    ordered = sorted(values)
    position = (count - 1) * q / 100
    low = int(position)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def optional_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """:func:`percentile`, or ``None`` when the sample is too small."""
    try:
        return percentile(values, q)
    except TooFewSamples:
        return None


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered(start, end, children)


def mean(values: Sequence[float]) -> Optional[float]:
    """Arithmetic mean, or ``None`` for an empty sample."""
    return sum(values) / len(values) if values else None


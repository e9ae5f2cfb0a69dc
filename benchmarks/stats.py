"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math

# A tail percentile counts as resolved only when at least this many samples
# lie strictly above it; with fewer, one or two outliers set its value.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def beyond(samples, value: float) -> int:
    """Number of samples strictly greater than value."""
    return sum(1 for s in samples if s > value)


def tail_is_resolved(samples, q: float = 99) -> bool:
    """True when the q-th percentile has MIN_BEYOND samples above it."""
    return bool(samples) and beyond(samples, percentile(samples, q)) >= MIN_BEYOND


def another_pass(elapsed: float, pass_times, seconds: float) -> bool:
    """Whether a run that must measure for about ``seconds`` starts another
    pass: yes while the pass would end less than half a pass past the
    deadline, so a run makes round(seconds / pass time) passes, at least one."""
    mean = sum(pass_times) / len(pass_times)
    return elapsed + mean / 2 < seconds

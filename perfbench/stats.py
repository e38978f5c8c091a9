"""Percentiles and failure shares for the benchmark's reports."""

from __future__ import annotations

import math

# Percentiles a timing may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def rank(n: int, pct: float) -> int:
    """1-based nearest-rank position of the pct-th percentile of n samples."""
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def samples_beyond(n: int, pct: float) -> int:
    return n - rank(n, pct)


def min_samples(pct: float) -> int:
    """Fewest samples that leave MIN_BEYOND samples beyond pct."""
    n = MIN_BEYOND + 1
    while samples_beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def tail_percentile(n: int):
    """The highest percentile of the ladder with at least MIN_BEYOND
    samples beyond it, or None when even the median has fewer."""
    best = None
    for pct in LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[rank(len(sorted_values), pct) - 1]


def failure_share(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("nothing attempted")
    return failed / attempted

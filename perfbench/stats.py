"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics

TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least `min_beyond` samples beyond it.

    Returns (percentile, value, sample count). The value is the sorted sample
    with exactly `min_beyond` larger-ranked samples after it, and the
    percentile is the share of samples at or below it. With `min_beyond`
    samples or fewer no percentile qualifies and (0.0, 0.0, n) is returned.
    """
    n = len(values)
    if n <= min_beyond:
        return 0.0, 0.0, n
    ordered = sorted(values)
    k = n - min_beyond  # samples at or below the tail value
    return 100.0 * k / n, float(ordered[k - 1]), n

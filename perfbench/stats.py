"""Order statistics for benchmark figures.

A percentile is reported only when at least `MIN_BEYOND` samples lie above
it, so a p90 needs 100 samples and a median 20. Quartile spreads follow
`statistics.quantiles(values, n=4)`, the rule the benchmark is judged by.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order
    statistics (numpy's default 'linear' method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_needed(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves `beyond` samples above the q-th
    percentile."""
    if not 0.0 <= q < 100.0:
        raise ValueError(f"need 0 <= q < 100, got {q}")
    return math.ceil(round(beyond * 100.0 / (100.0 - q), 9))


def reportable(n: int, q: float, beyond: int = MIN_BEYOND) -> bool:
    return n >= samples_needed(q, beyond)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives
    them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med

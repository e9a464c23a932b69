"""Order statistics shared by the workloads."""

from __future__ import annotations

import math


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share >= *q* at or
    below it.  ``q=0.9`` over 100 samples leaves 10 samples above."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return percentile(values, 0.5)

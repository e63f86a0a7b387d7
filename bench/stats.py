"""Order statistics shared by the harness, the comparer and the tests.

Percentiles use linear interpolation between closest ranks (the
``statistics.quantiles(..., method="inclusive")`` rule), so a
percentile of a sample always lies between two observed values.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0 <= q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)``.

    Keeps the standard library's default (exclusive) method, so the
    spreads reported here match a plain ``statistics.quantiles`` call.
    A single value has zero spread.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return [float(values[0])] * 3
    return [float(value) for value in statistics.quantiles(values, n=4)]


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and the third quartile."""
    q1, _, q3 = quartiles(values)
    return q3 - q1


def relative_spread(values: Sequence[float]) -> float:
    """IQR as a share of the median (0 when the median is 0)."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0

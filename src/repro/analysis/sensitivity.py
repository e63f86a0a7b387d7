"""Sensitivity analysis: how much margin does a configuration have?

Two dials a system designer turns, each answered by a search over the
Sec. IV tests:

* :func:`critical_wcet_scale` -- the largest uniform WCET inflation the
  R-channel tolerates (robustness against WCET under-estimation),
* :func:`max_preload_fraction` -- the largest I/O-GUARD-x preload for
  which the whole system stays analytically schedulable.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.lsched_test import lsched_schedulable
from repro.analysis.schedulability import analyze_system
from repro.tasks.taskset import TaskSet

__all__ = [
    "critical_wcet_scale",
    "max_preload_fraction",
]


def critical_wcet_scale(
    pi: int,
    theta: int,
    tasks: TaskSet,
    *,
    precision: float = 0.01,
    upper: float = 8.0,
) -> float:
    """Largest factor ``s`` with ``tasks.scaled_wcet(s)`` schedulable.

    Schedulability is monotone non-increasing in the scale (WCETs only
    grow), so bisection applies.  Returns 0.0 when even the unscaled set
    fails; ``upper`` caps the search for sets with enormous headroom.
    """
    if precision <= 0:
        raise ValueError(f"precision must be positive, got {precision}")
    if not lsched_schedulable(pi, theta, tasks).schedulable:
        return 0.0
    low, high = 1.0, upper
    if lsched_schedulable(pi, theta, tasks.scaled_wcet(high)).schedulable:
        return high
    while high - low > precision:
        mid = (low + high) / 2
        if lsched_schedulable(pi, theta, tasks.scaled_wcet(mid)).schedulable:
            low = mid
        else:
            high = mid
    return low


def max_preload_fraction(
    taskset: TaskSet,
    *,
    step: float = 0.05,
) -> Optional[float]:
    """Largest preload fraction keeping the whole system schedulable.

    Walks the fraction grid downward from 1.0; the P-channel table
    either packs or it does not, and the R-channel load shrinks with
    the fraction, but the free-slot *pattern* changes non-monotonically,
    so an explicit scan (not bisection) is used.  Returns None when no
    fraction on the grid is feasible.
    """
    if not 0 < step <= 1:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    fraction = 1.0
    best: Optional[float] = None
    while fraction >= -1e-9:
        split = taskset.split_predefined(max(0.0, fraction))
        if analyze_system(split).schedulable:
            best = round(max(0.0, fraction), 10)
            break
        fraction -= step
    return best

"""Linear-supply sufficient test: the cheap cousin of Theorem 4.

The Theorem-4 proof (Eq. 12) lower-bounds the periodic-resource supply
by the line ``t * Theta/Pi - (2*Pi - Theta - 1)``.  Using that line
*directly* as the supply yields a sufficient schedulability test that
needs no sbf evaluation -- strictly more pessimistic than Theorem 4, but
O(step points) with trivial constants.  Useful for fast admission
pre-filtering and as a precision baseline in the acceptance-ratio
experiment.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.demand import (
    dbf_signature_demand,
    dbf_step_points,
    demand_signature,
)
from repro.analysis.engine import VECTORIZE_MIN_POINTS
from repro.analysis.lsched_test import (
    LSchedResult,
    _exact_slack,
    _step_point_estimate,
    _theorem4_bound_from_slack,
    theorem4_bound,
)
from repro.analysis.supply import linear_supply_lower_bound
from repro.tasks.taskset import TaskSet

__all__ = [
    "lsched_schedulable_linear",
    "lsched_schedulable_linear_reference",
    "theorem4_bound",
]


def lsched_schedulable_linear(pi: int, theta: int, tasks: TaskSet) -> LSchedResult:
    """Sufficient test: demand against the linear supply lower bound.

    Accepting here implies Theorem 4 accepts (the line never exceeds the
    true sbf); rejection says nothing.  The same Theorem-4 horizon
    applies because the proof's inequality chain is built on this very
    line.
    """
    return _linear(pi, theta, tasks, _check_window)


def lsched_schedulable_linear_reference(
    pi: int, theta: int, tasks: TaskSet
) -> LSchedResult:
    """:func:`lsched_schedulable_linear` with the plain per-``t`` loop at
    every window size: the reference the numpy path is tested against,
    bit for bit."""
    return _linear(pi, theta, tasks, _scan_window)


#: A step-point sweep over ``[0, horizon]``: ``(pi, theta, tasks,
#: horizon, slack)`` to the verdict.
_Window = Callable[[int, int, TaskSet, int, float], LSchedResult]


def _linear(pi: int, theta: int, tasks: TaskSet, window: _Window) -> LSchedResult:
    if pi < 1 or not 0 < theta <= pi:
        raise ValueError(
            f"invalid server (pi={pi}, theta={theta})"
        )
    slack = _exact_slack(pi, theta, tasks)
    if len(tasks) == 0:
        return LSchedResult(
            schedulable=True, horizon=0, slack=float(slack),
            method="linear", server=(pi, theta),
        )
    if slack <= 0:
        return LSchedResult(
            schedulable=False, horizon=0, slack=float(slack),
            failing_t=0, method="linear", server=(pi, theta),
            task_names=[task.name for task in tasks],
        )
    horizon = _theorem4_bound_from_slack(pi, theta, tasks, slack)
    return window(pi, theta, tasks, horizon, float(slack))


def _check_window(
    pi: int, theta: int, tasks: TaskSet, horizon: int, slack: float
) -> LSchedResult:
    """The production sweep: numpy kernels on large windows, the plain
    loop below :data:`VECTORIZE_MIN_POINTS` step points."""
    if _step_point_estimate(tasks, horizon) >= VECTORIZE_MIN_POINTS:
        return _linear_window_vectorized(pi, theta, tasks, horizon, slack)
    return _scan_window(pi, theta, tasks, horizon, slack)


def _scan_window(
    pi: int, theta: int, tasks: TaskSet, horizon: int, slack: float
) -> LSchedResult:
    names = [task.name for task in tasks]
    signature = demand_signature(tasks)
    for t in dbf_step_points(tasks, horizon):
        demand = dbf_signature_demand(signature, t)
        supply = linear_supply_lower_bound(pi, theta, t)
        if demand > supply:
            return LSchedResult(
                schedulable=False,
                horizon=horizon,
                slack=slack,
                failing_t=t,
                failing_demand=demand,
                failing_supply=int(max(0.0, supply)),
                method="linear",
                server=(pi, theta),
                task_names=names,
            )
    return LSchedResult(
        schedulable=True,
        horizon=horizon,
        slack=slack,
        method="linear",
        server=(pi, theta),
        task_names=names,
    )


def _linear_inverse(pi: int, theta: int, demand: int) -> int:
    """Smallest ``t`` with ``linear_supply_lower_bound(pi, theta, t) >= demand``.

    Computed in exact rational arithmetic, then bumped forward while the
    *float* evaluation (the comparison the scalar loop actually performs)
    still falls short -- the bump keeps the QPA skip range sound under
    IEEE rounding, so the numpy path and the loop agree bit for bit.
    """
    if demand <= 0:
        return 0
    blackout = 2 * pi - theta - 1
    t = -(-(demand + blackout) * pi // theta)
    while linear_supply_lower_bound(pi, theta, t) < demand:
        t += 1
    return t


def _linear_window_vectorized(
    pi: int,
    theta: int,
    tasks: TaskSet,
    horizon: int,
    slack: float,
) -> LSchedResult:
    """QPA descent + numpy scan against the linear supply lower bound."""
    from repro.analysis import vectorized as vec

    names = [task.name for task in tasks]
    signature = demand_signature(tasks)
    failure = vec.taskset_failure(
        signature,
        horizon,
        supply_of=lambda t: linear_supply_lower_bound(pi, theta, t),
        inverse_of=lambda d: _linear_inverse(pi, theta, d),
        supply_at=lambda ts: vec.linear_supply_at(pi, theta, ts),
    )
    if failure is None:
        return LSchedResult(
            schedulable=True,
            horizon=horizon,
            slack=slack,
            method="linear",
            server=(pi, theta),
            task_names=names,
        )
    t, demand, supply = failure
    return LSchedResult(
        schedulable=False,
        horizon=horizon,
        slack=slack,
        failing_t=t,
        failing_demand=demand,
        failing_supply=int(max(0.0, supply)),
        method="linear",
        server=(pi, theta),
        task_names=names,
    )

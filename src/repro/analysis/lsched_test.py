"""L-Sched schedulability: Theorems 3 and 4 (Sec. IV-B).

Within VM i, the sporadic I/O tasks are scheduled by EDF over the slots
delivered by the server ``Gamma_i = (Pi_i, Theta_i)`` under the periodic
resource model.  Theorem 3 is the exact condition
``forall t: sum_k dbf(tau_k, t) <= sbf(Gamma_i, t)``; Theorem 4 caps the
examined ``t`` at ``(max_k(T_k - D_k) + 2*Pi_i - Theta_i - 1) / c'``
whenever the slack ``c' = Theta_i/Pi_i - sum_k C_k/T_k`` is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from repro.analysis.demand import (
    dbf_signature_demand,
    dbf_step_points,
    dbf_taskset,
    demand_signature,
)
from repro.analysis.engine import VECTORIZE_MIN_POINTS
from repro.analysis.hyperperiod import lcm_capped
from repro.analysis.supply import sbf_server, sbf_server_inverse
from repro.tasks.taskset import TaskSet

#: Exact-test guard (see gsched_test.EXACT_TEST_CAP).
EXACT_TEST_CAP = 5_000_000

# VECTORIZE_MIN_POINTS is re-exported (and monkeypatchable) here, but
# defined once in repro.analysis.engine -- see the note there.


@dataclass
class LSchedResult:
    """Outcome of an L-Sched schedulability test for one VM."""

    schedulable: bool
    horizon: int
    #: Slack ``c' = Theta/Pi - sum C/T`` (negative means over-utilized).
    slack: float
    failing_t: Optional[int] = None
    failing_demand: Optional[int] = None
    failing_supply: Optional[int] = None
    method: str = "theorem4"
    server: Tuple[int, int] = (1, 1)
    task_names: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.schedulable

    def summary(self) -> str:
        from repro.analysis.result import witness_text

        verdict = "schedulable" if self.schedulable else "unschedulable"
        return (
            f"L-Sched ({self.method}): {verdict}"
            f"{witness_text(self.failing_t, self.failing_demand, self.failing_supply)}"
            f" [server {self.server}, {len(self.task_names)} tasks, "
            f"horizon {self.horizon}]"
        )


def theorem4_bound(pi: int, theta: int, tasks: TaskSet) -> int:
    """The Theorem-4 horizon (exclusive, ceiled).

    ``t < (max(T_k - D_k) + 2*Pi - Theta - 1) / c'``.  Computed in exact
    rational arithmetic (float division would occasionally push the
    ceiling one step too far).  Raises ``ValueError`` for non-positive
    slack, mirroring the theorem's precondition.
    """
    _validate_server(pi, theta)
    return _theorem4_bound_from_slack(pi, theta, tasks, _exact_slack(pi, theta, tasks))


def _theorem4_bound_from_slack(
    pi: int, theta: int, tasks: TaskSet, slack: Fraction
) -> int:
    if slack <= 0:
        raise ValueError(
            f"Theorem 4 requires positive slack; got c'={float(slack):.6f} "
            f"(theta/pi={theta}/{pi}, utilization={tasks.utilization:.6f})"
        )
    numerator = tasks.max_laxity_gap + 2 * pi - theta - 1
    if numerator <= 0:
        # Degenerate single-slot server with implicit deadlines: the
        # utilization condition alone decides, but keep one step point.
        return 1
    return int(math.ceil(Fraction(numerator) / slack))


def _exact_slack(pi: int, theta: int, tasks: TaskSet) -> Fraction:
    """``theta/pi - sum C/T`` in exact arithmetic.

    Classifying the slack sign with floats occasionally disagrees with
    the exact value near zero, which would route borderline systems to
    the wrong test.  Accumulated as a raw numerator/denominator pair --
    one normalization at the end instead of a gcd per Fraction add.
    """
    num, den = theta, pi
    for task in tasks:
        num = num * task.period - task.wcet * den
        den *= task.period
    return Fraction(num, den)


def lsched_schedulable(pi: int, theta: int, tasks: TaskSet) -> LSchedResult:
    """Theorem 4: pseudo-polynomial L-Sched test for one VM."""
    return _theorem4(pi, theta, tasks, _check_window)


def lsched_schedulable_reference(
    pi: int, theta: int, tasks: TaskSet
) -> LSchedResult:
    """:func:`lsched_schedulable` with the plain per-``t`` loop at every
    window size: the reference the production kernels are tested
    against, bit for bit."""
    return _theorem4(pi, theta, tasks, _scan_window)


def lsched_schedulable_exact(
    pi: int,
    theta: int,
    tasks: TaskSet,
    cap: int = EXACT_TEST_CAP,
) -> LSchedResult:
    """Theorem 3: exact test up to lcm({Pi} u {T_k}) + max(D_k).

    Over one LCM repetition demand grows by ``lcm * sum C/T`` and supply
    by at least ``lcm * Theta/Pi``; with non-positive over-utilization
    checking the first repetition (shifted by the largest deadline to
    cover all staircase offsets) decides the infinite condition.
    """
    return _theorem3(pi, theta, tasks, cap, _check_window)


def lsched_schedulable_exact_reference(
    pi: int, theta: int, tasks: TaskSet, cap: int = EXACT_TEST_CAP
) -> LSchedResult:
    """:func:`lsched_schedulable_exact` with the plain per-``t`` loop at
    every window size."""
    return _theorem3(pi, theta, tasks, cap, _scan_window)


#: A step-point sweep over ``[0, horizon]``: ``(pi, theta, tasks,
#: horizon, slack, method)`` to the verdict.
_Window = Callable[[int, int, TaskSet, int, float, str], LSchedResult]


def _preamble(
    pi: int, theta: int, tasks: TaskSet, method: str
) -> Tuple[Fraction, Optional[LSchedResult]]:
    """Exact slack and the verdict when no window is needed (no tasks,
    or over-utilized)."""
    _validate_server(pi, theta)
    slack = _exact_slack(pi, theta, tasks)
    if len(tasks) == 0:
        return slack, LSchedResult(
            schedulable=True,
            horizon=0,
            slack=float(slack),
            method=method,
            server=(pi, theta),
        )
    if slack < 0:
        witness = _overload_witness(pi, theta, tasks)
        return slack, LSchedResult(
            schedulable=False,
            horizon=witness[0],
            slack=float(slack),
            failing_t=witness[0],
            failing_demand=witness[1],
            failing_supply=witness[2],
            method="utilization",
            server=(pi, theta),
            task_names=[task.name for task in tasks],
        )
    return slack, None


def _theorem4(pi: int, theta: int, tasks: TaskSet, window: _Window) -> LSchedResult:
    slack, decided = _preamble(pi, theta, tasks, "theorem4")
    if decided is not None:
        return decided
    if slack == 0:
        return _theorem3(pi, theta, tasks, EXACT_TEST_CAP, window)
    horizon = _theorem4_bound_from_slack(pi, theta, tasks, slack)
    return window(pi, theta, tasks, horizon, float(slack), "theorem4")


def _theorem3(
    pi: int, theta: int, tasks: TaskSet, cap: int, window: _Window
) -> LSchedResult:
    slack, decided = _preamble(pi, theta, tasks, "theorem3")
    if decided is not None:
        return decided
    lcm = lcm_capped([pi] + [task.period for task in tasks], cap)
    horizon = lcm + max(task.deadline for task in tasks)
    return window(pi, theta, tasks, horizon, float(slack), "theorem3")


def _check_window(
    pi: int,
    theta: int,
    tasks: TaskSet,
    horizon: int,
    slack: float,
    method: str,
) -> LSchedResult:
    """The production sweep: numpy kernels on large windows, the plain
    loop below :data:`VECTORIZE_MIN_POINTS` step points."""
    if _step_point_estimate(tasks, horizon) >= VECTORIZE_MIN_POINTS:
        return _check_window_vectorized(pi, theta, tasks, horizon, slack, method)
    return _scan_window(pi, theta, tasks, horizon, slack, method)


def _scan_window(
    pi: int,
    theta: int,
    tasks: TaskSet,
    horizon: int,
    slack: float,
    method: str,
) -> LSchedResult:
    names = [task.name for task in tasks]
    signature = demand_signature(tasks)
    for t in dbf_step_points(tasks, horizon):
        demand = dbf_signature_demand(signature, t)
        supply = sbf_server(pi, theta, t)
        if demand > supply:
            return LSchedResult(
                schedulable=False,
                horizon=horizon,
                slack=slack,
                failing_t=t,
                failing_demand=demand,
                failing_supply=supply,
                method=method,
                server=(pi, theta),
                task_names=names,
            )
    return LSchedResult(
        schedulable=True,
        horizon=horizon,
        slack=slack,
        method=method,
        server=(pi, theta),
        task_names=names,
    )


def _step_point_estimate(tasks: TaskSet, horizon: int) -> int:
    """Upper bound on the number of dbf step points up to ``horizon``."""
    total = 0
    for task in tasks:
        if horizon >= task.deadline:
            total += (horizon - task.deadline) // task.period + 1
    return total


def _check_window_vectorized(
    pi: int,
    theta: int,
    tasks: TaskSet,
    horizon: int,
    slack: float,
    method: str,
) -> LSchedResult:
    """QPA descent + numpy witness scan; bit-identical to _scan_window."""
    from repro.analysis import vectorized as vec

    names = [task.name for task in tasks]
    signature = demand_signature(tasks)
    failure = vec.taskset_failure(
        signature,
        horizon,
        supply_of=lambda t: sbf_server(pi, theta, t),
        inverse_of=lambda d: sbf_server_inverse(pi, theta, d),
        supply_at=lambda ts: vec.sbf_server_at(pi, theta, ts),
    )
    if failure is None:
        return LSchedResult(
            schedulable=True,
            horizon=horizon,
            slack=slack,
            method=method,
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
        failing_supply=int(supply),
        method=method,
        server=(pi, theta),
        task_names=names,
    )


def _overload_witness(pi: int, theta: int, tasks: TaskSet) -> Tuple[int, int, int]:
    base = pi
    for task in tasks:
        base = math.lcm(base, task.period)
        if base > EXACT_TEST_CAP:
            break
    t = base
    for _ in range(10_000):
        demand = dbf_taskset(tasks, t)
        supply = sbf_server(pi, theta, t)
        if demand > supply:
            return t, demand, supply
        t += base
    raise AssertionError(
        "over-utilized VM produced no finite witness; "
        "slack computation is inconsistent"
    )


def _validate_server(pi: int, theta: int) -> None:
    if pi < 1:
        raise ValueError(f"server period must be >= 1, got {pi}")
    if not 0 < theta <= pi:
        raise ValueError(
            f"server budget must satisfy 0 < theta <= pi, got "
            f"theta={theta}, pi={pi}"
        )

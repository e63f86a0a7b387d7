"""G-Sched schedulability: Theorems 1 and 2 (Sec. IV-A).

The global layer treats each VM i as a periodic server
``Gamma_i = (Pi_i, Theta_i)`` scheduled by EDF over the free slots of the
time slot table sigma.  Theorem 1 is the exact condition
``forall t: sum_i dbf(Gamma_i, t) <= sbf(sigma, t)``; Theorem 2 caps the
range of ``t`` that must be examined at ``F * (H-1)/H / c`` whenever the
slack ``c = F/H - sum_i Theta_i/Pi_i`` is bounded away from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.demand import dbf_server, server_step_points
from repro.analysis.engine import VECTORIZE_MIN_POINTS
from repro.analysis.hyperperiod import lcm_capped
from repro.core.timeslot import TimeSlotTable

#: Exact-test guard: Theorem 1 checks up to lcm({H} u {Pi_i}), which is
#: exponential in the input values; refuse beyond this many slots.
EXACT_TEST_CAP = 5_000_000

# VECTORIZE_MIN_POINTS is re-exported (and monkeypatchable) here, but
# defined once in repro.analysis.engine -- see the note there.


@dataclass
class GSchedResult:
    """Outcome of a G-Sched schedulability test."""

    schedulable: bool
    #: Horizon actually examined (slots).
    horizon: int
    #: Slack ``c = F/H - sum Theta/Pi`` (negative means over-utilized).
    slack: float
    #: First failing t, when unschedulable.
    failing_t: Optional[int] = None
    #: Demand and supply at the failing point.
    failing_demand: Optional[int] = None
    failing_supply: Optional[int] = None
    #: Which theorem produced the verdict ("theorem1" or "theorem2").
    method: str = "theorem2"
    #: The (pi, theta) pairs tested.
    servers: List[Tuple[int, int]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.schedulable

    def summary(self) -> str:
        from repro.analysis.result import witness_text

        verdict = "schedulable" if self.schedulable else "unschedulable"
        return (
            f"G-Sched ({self.method}): {verdict}"
            f"{witness_text(self.failing_t, self.failing_demand, self.failing_supply)}"
            f" [{len(self.servers)} servers, horizon {self.horizon}]"
        )


def server_bandwidth(servers: Sequence[Tuple[int, int]]) -> float:
    """``sum_i Theta_i / Pi_i``."""
    total = 0.0
    for pi, theta in servers:
        if pi < 1 or not 0 < theta <= pi:
            raise ValueError(f"invalid server (pi={pi}, theta={theta})")
        total += theta / pi
    return total


def theorem2_bound(table: TimeSlotTable, servers: Sequence[Tuple[int, int]]) -> int:
    """The Theorem-2 horizon ``F * (H-1)/H / c`` (exclusive, ceiled).

    Computed in exact rational arithmetic (float division occasionally
    pushes the ceiling one step too far).  Raises ``ValueError`` when
    the slack is non-positive: Theorem 2 only applies to systems with
    strictly positive slack (its stated limitation; see "On the
    limitation of Theorem 2").
    """
    h = table.total_slots
    f = table.free_slots
    slack = Fraction(f, h) - sum(
        (Fraction(theta, pi) for pi, theta in servers), Fraction(0)
    )
    if slack <= 0:
        raise ValueError(
            f"Theorem 2 requires positive slack; got c={float(slack):.6f} "
            f"(F/H={f}/{h}, bandwidth={server_bandwidth(servers):.6f})"
        )
    if h == 1:
        # (H-1)/H = 0: the table is a trivial single-slot pattern and the
        # bound degenerates to checking t = 0 only, i.e. the utilization
        # condition alone suffices.
        return 1
    return int(math.ceil(Fraction(f * (h - 1), h) / slack))


def gsched_schedulable(
    table: TimeSlotTable, servers: Sequence[Tuple[int, int]]
) -> GSchedResult:
    """Theorem 2: pseudo-polynomial G-Sched test.

    Checks the Theorem-1 inequality at every aggregate-dbf step point up
    to the Theorem-2 horizon.  Over-utilized systems (non-positive slack)
    are immediately unschedulable in the long run; we report them with a
    witness at the table hyper-period scale.
    """
    return _theorem2(table, servers, _check_window)


def gsched_schedulable_reference(
    table: TimeSlotTable, servers: Sequence[Tuple[int, int]]
) -> GSchedResult:
    """:func:`gsched_schedulable` with the plain per-``t`` loop at every
    window size: the reference the production kernels are tested
    against, bit for bit."""
    return _theorem2(table, servers, _scan_window)


def gsched_schedulable_exact(
    table: TimeSlotTable,
    servers: Sequence[Tuple[int, int]],
    cap: int = EXACT_TEST_CAP,
) -> GSchedResult:
    """Theorem 1: exact test up to lcm({H} u {Pi_i}).

    The demand and supply curves both repeat with that LCM, and over one
    repetition demand grows by ``lcm * bandwidth`` while supply grows by
    ``lcm * F/H``; when bandwidth <= F/H and the inequality holds over
    the first repetition it holds forever.
    """
    return _theorem1(table, servers, cap, _check_window)


#: A step-point sweep over ``[0, horizon]``: ``(table, servers, horizon,
#: slack, method)`` to the verdict.
_Window = Callable[
    [TimeSlotTable, List[Tuple[int, int]], int, float, str], GSchedResult
]


def _preamble(
    table: TimeSlotTable, servers: Sequence[Tuple[int, int]], method: str
) -> Tuple[List[Tuple[int, int]], Fraction, Optional[GSchedResult]]:
    """Normalized pairs, exact slack and the verdict when no window is
    needed (no servers, or over-utilized)."""
    pairs = [(int(pi), int(theta)) for pi, theta in servers]
    server_bandwidth(pairs)  # validates the pairs
    slack = Fraction(table.free_slots, table.total_slots) - sum(
        (Fraction(theta, pi) for pi, theta in pairs), Fraction(0)
    )
    if not pairs:
        return pairs, slack, GSchedResult(
            schedulable=True,
            horizon=0,
            slack=float(slack),
            method=method,
            servers=[],
        )
    if slack < 0:
        witness = _overload_witness(table, pairs)
        return pairs, slack, GSchedResult(
            schedulable=False,
            horizon=witness[0],
            slack=float(slack),
            failing_t=witness[0],
            failing_demand=witness[1],
            failing_supply=witness[2],
            method="utilization",
            servers=pairs,
        )
    return pairs, slack, None


def _theorem2(
    table: TimeSlotTable, servers: Sequence[Tuple[int, int]], window: _Window
) -> GSchedResult:
    pairs, slack, decided = _preamble(table, servers, "theorem2")
    if decided is not None:
        return decided
    if slack == 0:
        # Theorem 2 does not apply; fall back to the exact test when the
        # hyper-period is tractable.
        return _theorem1(table, pairs, EXACT_TEST_CAP, window)
    horizon = theorem2_bound(table, pairs)
    return window(table, pairs, horizon, float(slack), "theorem2")


def _theorem1(
    table: TimeSlotTable,
    servers: Sequence[Tuple[int, int]],
    cap: int,
    window: _Window,
) -> GSchedResult:
    pairs, slack, decided = _preamble(table, servers, "theorem1")
    if decided is not None:
        return decided
    horizon = lcm_capped([table.total_slots] + [pi for pi, _ in pairs], cap)
    return window(table, pairs, horizon, float(slack), "theorem1")


def _check_window(
    table: TimeSlotTable,
    servers: List[Tuple[int, int]],
    horizon: int,
    slack: float,
    method: str,
) -> GSchedResult:
    """The production sweep: numpy kernels on large windows, the plain
    loop below :data:`VECTORIZE_MIN_POINTS` step points."""
    if sum(horizon // pi for pi, _theta in servers) >= VECTORIZE_MIN_POINTS:
        return _check_window_vectorized(table, servers, horizon, slack, method)
    return _scan_window(table, servers, horizon, slack, method)


def _scan_window(
    table: TimeSlotTable,
    servers: List[Tuple[int, int]],
    horizon: int,
    slack: float,
    method: str,
) -> GSchedResult:
    for t in server_step_points(servers, horizon):
        demand = sum(dbf_server(pi, theta, t) for pi, theta in servers)
        supply = table.sbf(t)
        if demand > supply:
            return GSchedResult(
                schedulable=False,
                horizon=horizon,
                slack=slack,
                failing_t=t,
                failing_demand=demand,
                failing_supply=supply,
                method=method,
                servers=servers,
            )
    return GSchedResult(
        schedulable=True,
        horizon=horizon,
        slack=slack,
        method=method,
        servers=servers,
    )


def _check_window_vectorized(
    table: TimeSlotTable,
    servers: List[Tuple[int, int]],
    horizon: int,
    slack: float,
    method: str,
) -> GSchedResult:
    """QPA descent + numpy witness scan; bit-identical to _scan_window."""
    from repro.analysis import vectorized as vec

    failure = vec.server_failure(table, servers, horizon)
    if failure is None:
        return GSchedResult(
            schedulable=True,
            horizon=horizon,
            slack=slack,
            method=method,
            servers=servers,
        )
    t, demand, supply = failure
    return GSchedResult(
        schedulable=False,
        horizon=horizon,
        slack=slack,
        failing_t=t,
        failing_demand=demand,
        failing_supply=supply,
        method=method,
        servers=servers,
    )


def _overload_witness(
    table: TimeSlotTable, servers: List[Tuple[int, int]]
) -> Tuple[int, int, int]:
    """A failing (t, demand, supply) for an over-utilized system.

    Long-run demand rate exceeds supply rate, so some multiple of the
    combined period must fail; walk multiples until it does.
    """
    base = table.total_slots
    for pi, _theta in servers:
        base = math.lcm(base, pi)
        if base > EXACT_TEST_CAP:
            break
    t = base
    for _ in range(10_000):
        demand = sum(dbf_server(pi, theta, t) for pi, theta in servers)
        supply = table.sbf(t)
        if demand > supply:
            return t, demand, supply
        t += base
    raise AssertionError(
        "over-utilized system produced no finite witness; "
        "slack computation is inconsistent"
    )

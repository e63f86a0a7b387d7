"""Server dimensioning: choosing ``Gamma_i = (Pi_i, Theta_i)`` per VM.

The paper assumes the servers are given; a usable system needs a way to
pick them.  This module holds the one budget search and the seed
designer built on it:

* :func:`minimum_budgets_batched` -- the minimum ``Theta`` passing the
  L-Sched test (Theorem 4) for many ``(Pi, tasks)`` lanes at once, by a
  lock-step fixpoint on per-step-point minimum budgets (Eq. (8)
  inverted per point), started at the closed-form harmonic cap
  (:func:`harmonic_fast_budget`) where there is one;
  :func:`minimum_budget` is a batch of one.
* :func:`design_servers` -- one server per VM at the period the caller
  pins or :func:`choose_period` picks, budgets from one batched search,
  validated globally with Theorem 2.  It is the analytic designer and
  the incumbent seed of :func:`repro.synth.servers.synthesize_servers`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import vectorized as vec
from repro.analysis.batched import (
    BATCH_CELL_BUDGET,
    RAGGED_POINTS_CAP,
    _raw_slack,
    _taskset_grid_demand_many,
    _theorem4_bound_raw,
    lsched_schedulable_batch,
)
from repro.analysis.demand import DemandSignature, demand_signature
from repro.analysis.engine import INT64_SAFE_HORIZON
from repro.analysis.gsched_test import GSchedResult, gsched_schedulable
from repro.analysis.supply import sbf_server_uncached
from repro.core.timeslot import TimeSlotTable
from repro.tasks.taskset import TaskSet


@dataclass
class ServerDesign:
    """Result of dimensioning servers for a set of VMs."""

    #: vm_id -> (pi, theta)
    servers: Dict[int, Tuple[int, int]]
    #: Whether every per-VM (Theorem 4) test passed.
    local_ok: bool
    #: The global (Theorem 2) validation result.
    global_result: Optional[GSchedResult]
    #: vm_id -> reason string, for VMs whose dimensioning failed.
    failures: Dict[int, str]

    @property
    def feasible(self) -> bool:
        return (
            self.local_ok
            and self.global_result is not None
            and self.global_result.schedulable
        )

    def as_pairs(self) -> List[Tuple[int, int]]:
        return [self.servers[vm] for vm in sorted(self.servers)]


@dataclass
class BudgetSearchStats:
    """Accounting for one batched minimum-budget search.

    ``oracle_calls`` counts lane evaluations -- one per open lane per
    round, whether the per-point kernel or a Theorem-4 probe decides it
    (the quantity the synthesis differential tests bound) -- ``pruned``
    the candidate lanes eliminated by the utilization lower bound
    before any evaluation, ``rounds`` the lock-step fixpoint rounds of
    :func:`minimum_budgets_batched`, and ``fast_path`` the lanes that
    start from the :func:`harmonic_fast_budget` cap instead of ``pi``.
    """

    oracle_calls: int = 0
    pruned: int = 0
    rounds: int = 0
    fast_path: int = 0

    def merge(self, other: "BudgetSearchStats") -> None:
        self.oracle_calls += other.oracle_calls
        self.pruned += other.pruned
        self.rounds += other.rounds
        self.fast_path += other.fast_path


def utilization_budget_floor(pi: int, tasks: TaskSet) -> int:
    """The utilization lower bound on ``theta`` for period ``pi``.

    No budget below ``ceil(U * pi)`` can pass Theorem 4 (the server
    would deliver less bandwidth than the tasks demand), so this is a
    sound per-node bound for pruning candidate periods: if even the
    floor's bandwidth ``floor/pi`` is no better than an incumbent
    design, the period cannot improve on it.  It is also the lower
    bound every lane of :func:`minimum_budgets_batched` starts from.
    """
    if pi < 1:
        raise ValueError(f"server period must be >= 1, got {pi}")
    if len(tasks) == 0:
        return 1
    return max(1, int(math.ceil(tasks.utilization * pi)))


def harmonic_fast_budget(pi: int, tasks: TaskSet) -> Optional[int]:
    """Closed-form sufficient budget for harmonic implicit-deadline sets.

    When every deadline is implicit and the distinct task periods form a
    harmonic chain (each divides the next), the dbf step points within
    one VM hyper-period ``H_vm = max T`` are all multiples of ``min T``,
    and the linear supply bound ``lsbf(t) = t*theta/pi - (2*pi-theta-1)``
    inverts per point to ``theta >= pi*(dbf(t) + 2*pi - 1) / (t + pi)``.
    The maximum of those ceilings over ``t in (0, H_vm]`` -- together
    with the bandwidth condition ``theta/pi >= U``, which extends the
    check past ``H_vm`` because ``dbf(t + H_vm) = dbf(t) + U*H_vm`` --
    is a budget that provably passes Theorem 4.  It upper-bounds the
    exact minimum (the linear bound under-approximates sbf), so
    :func:`minimum_budgets_batched` starts the lane's fixpoint there
    instead of at ``pi``: its first round runs on the shorter window.

    Returns ``None`` when the set is empty or not harmonic/implicit (no
    fast path) or the closed form lands above ``pi`` (start unchanged).
    """
    if pi < 1:
        raise ValueError(f"server period must be >= 1, got {pi}")
    if len(tasks) == 0:
        return None
    ordered = sorted(tasks, key=lambda task: (task.period, task.name))
    periods: List[int] = []
    for task in ordered:
        if task.deadline != task.period:
            return None
        if not periods or task.period != periods[-1]:
            periods.append(task.period)
    for smaller, larger in zip(periods, periods[1:]):
        if larger % smaller != 0:
            return None
    h_vm = periods[-1]
    base = periods[0]
    if h_vm // base > 4_096:  # degenerate spread; fall back to search
        return None
    floor = utilization_budget_floor(pi, tasks)
    theta_fast = floor
    demand = 0
    for step in range(1, h_vm // base + 1):
        t = step * base
        demand = sum((t // task.period) * task.wcet for task in ordered)
        if demand <= 0:
            continue
        numerator = pi * (demand + 2 * pi - 1)
        theta_point = -(-numerator // (t + pi))
        if theta_point > theta_fast:
            theta_fast = theta_point
    if theta_fast > pi:
        return None
    return theta_fast


def minimum_budgets_batched(
    candidates: Sequence[Tuple[int, TaskSet]],
    *,
    bandwidth_bounds: Optional[Sequence[Optional[float]]] = None,
    stats: Optional[BudgetSearchStats] = None,
) -> List[Optional[int]]:
    """Smallest ``theta`` passing Theorem 4 for each ``(pi, tasks)`` lane.

    Lane ``i`` returns the least ``theta`` in
    ``[utilization_budget_floor(pi, tasks), pi]`` such that
    ``(pi, theta)`` passes Theorem 4, or ``None`` when even
    ``theta = pi`` fails; an empty task set gets ``1``.

    With positive slack Theorem 4 is exact (it decides Theorem 3), so
    every passing ``theta`` meets ``dbf(t) <= sbf(pi, theta, t)`` at
    *every* step point ``t``, and the per-point minimum budget ``m(t)``
    (the least ``theta`` whose Eq. (8) supply covers ``dbf(t)``) is a
    lower bound on the answer wherever ``t`` lies.  A candidate ``c``
    with positive slack passes exactly when ``m(t) <= c`` at every step
    point up to its horizon ``H(c)``.  Each lane therefore iterates a
    fixpoint: starting from its upper end (the
    :func:`harmonic_fast_budget` cap, else ``pi``), one *round* computes
    ``g = max(floor, max m(t) over t <= H(c))``.  ``g > pi`` proves the
    lane infeasible; ``g <= c`` with ``c`` a proven lower bound (or
    ``g == c``) makes ``c`` the answer; otherwise the lane continues at
    ``c = g``, which is a lower bound.  ``c`` only rises after the first
    round, and ``H(c)`` only shrinks with it, so a lane typically
    settles in two or three rounds.

    The lanes advance in *lock step*: a round builds every kernel lane's
    step grid and demand curve with one
    :func:`~repro.analysis.batched._taskset_grid_demand_many` pass and
    inverts Eq. (8) per point with one vectorized bisection over
    ``theta`` on int64 arrays.  A lane the kernel must not take -- zero
    slack at ``c`` (decided by Theorem 3), a horizon above
    :data:`~repro.analysis.engine.INT64_SAFE_HORIZON`, or a grid over
    :data:`~repro.analysis.batched.RAGGED_POINTS_CAP` points -- gets one
    :func:`~repro.analysis.batched.lsched_schedulable_batch` probe at
    ``c`` instead: a pass answers ``c`` when it is a lower bound and
    restarts the lane at the floor otherwise; a failure lifts ``c`` to
    the per-point budget at the reported ``failing_t``.

    ``bandwidth_bounds`` enables the synthesis search's incumbent-bound
    early exit: a lane whose utilization floor already implies
    bandwidth ``>= bandwidth_bounds[i]`` can never improve on the
    incumbent and is pruned to ``None`` without touching the oracle.
    Pass ``None`` (or per-lane ``None``) to disable pruning.
    """
    count = len(candidates)
    results: List[Optional[int]] = [None] * count
    floors: Dict[int, int] = {}
    # index -> (candidate c, whether c is a proven lower bound)
    open_lanes: Dict[int, Tuple[int, bool]] = {}
    for index, (pi, tasks) in enumerate(candidates):
        if pi < 1:
            raise ValueError(f"server period must be >= 1, got {pi}")
        if len(tasks) == 0:
            results[index] = 1
            continue
        fast = harmonic_fast_budget(pi, tasks)
        if fast is not None and stats is not None:
            stats.fast_path += 1
        low = utilization_budget_floor(pi, tasks)
        if low > pi:
            continue
        bound = bandwidth_bounds[index] if bandwidth_bounds is not None else None
        if bound is not None and low / pi >= bound:
            if stats is not None:
                stats.pruned += 1
            continue
        start = fast if fast is not None else pi
        floors[index] = low
        open_lanes[index] = (start, start == low)
    while open_lanes:
        if stats is not None:
            stats.rounds += 1
            stats.oracle_calls += len(open_lanes)
        needs = _round_needs(candidates, open_lanes, floors)
        advanced: Dict[int, Tuple[int, bool]] = {}
        for index, (candidate, lower) in open_lanes.items():
            need = needs[index]
            if need > candidates[index][0]:
                continue
            if need == candidate or (lower and need < candidate):
                results[index] = candidate
            else:
                advanced[index] = (need, True)
        open_lanes = advanced
    return results


class _KernelLane(NamedTuple):
    """One open lane the per-point kernel decides this round."""

    index: int
    pi: int
    #: A proven lower bound on the answer: ``c`` or the floor.
    known: int
    signature: DemandSignature
    horizon: int
    #: Step-point estimate up to ``horizon`` (the grid's size bound).
    points: int


def _round_needs(
    candidates: Sequence[Tuple[int, TaskSet]],
    open_lanes: Dict[int, Tuple[int, bool]],
    floors: Dict[int, int],
) -> Dict[int, int]:
    """One fixpoint round: each open lane's next budget lower bound ``g``.

    Kernel lanes get ``max(known lower bound, max m(t) over t <= H(c))``;
    probe lanes get ``c`` (pass, lower bound), the floor (pass, not a
    lower bound) or the per-point budget at the failing step point.
    """
    needs: Dict[int, int] = {}
    kernel: List[_KernelLane] = []
    probes: List[int] = []
    for index, (candidate, lower) in open_lanes.items():
        pi, tasks = candidates[index]
        num, den = _raw_slack(pi, candidate, tasks)
        if num > 0:
            horizon = _theorem4_bound_raw(pi, candidate, tasks, num, den)
            if horizon <= INT64_SAFE_HORIZON:
                signature = demand_signature(tasks)
                points = vec._grid_estimate(vec.step_pairs(signature), horizon)
                if points <= RAGGED_POINTS_CAP:
                    known = candidate if lower else floors[index]
                    kernel.append(
                        _KernelLane(index, pi, known, signature, horizon, points)
                    )
                    continue
        probes.append(index)
    # Memory bound: a group's grids hold at most BATCH_CELL_BUDGET
    # points (a lane alone may reach RAGGED_POINTS_CAP).
    group: List[_KernelLane] = []
    size = 0
    for lane in kernel:
        if group and size + lane.points > BATCH_CELL_BUDGET:
            needs.update(_group_needs(group))
            group, size = [], 0
        group.append(lane)
        size += lane.points
    if group:
        needs.update(_group_needs(group))
    if probes:
        verdicts = lsched_schedulable_batch(
            [
                (candidates[index][0], open_lanes[index][0], candidates[index][1])
                for index in probes
            ]
        )
        for index, verdict in zip(probes, verdicts):
            candidate, lower = open_lanes[index]
            if verdict.schedulable:
                needs[index] = candidate if lower else floors[index]
                continue
            assert verdict.failing_t is not None
            assert verdict.failing_demand is not None
            needs[index] = _point_budget(
                candidates[index][0],
                candidate,
                verdict.failing_t,
                verdict.failing_demand,
            )
    return needs


def _point_budget(pi: int, known: int, t: int, demand: int) -> int:
    """:func:`_point_budgets` for one point, in Python ints.

    A probe lane's failing point may lie past int64 (its horizon is
    what sent it to the probe), so this bisects ``theta`` over
    ``(known, pi]`` with the scalar Eq. (8).
    """
    low, high = known + 1, pi + 1
    while low < high:
        mid = (low + high) // 2
        if sbf_server_uncached(pi, mid, t) >= demand:
            high = mid
        else:
            low = mid + 1
    return low


def _group_needs(group: Sequence[_KernelLane]) -> Dict[int, int]:
    """``max(known, max m(t))`` per lane: one grid build, one inversion."""
    built = _taskset_grid_demand_many(
        [(lane.signature, lane.horizon) for lane in group]
    )
    sizes = np.array([grid.size for grid, _demand in built], dtype=np.int64)
    lane_ids = np.repeat(np.arange(len(group), dtype=np.int64), sizes)
    points = np.concatenate([grid for grid, _demand in built])
    demand = np.concatenate([curve for _grid, curve in built])
    known = np.array([lane.known for lane in group], dtype=np.int64)
    pis = np.array([lane.pi for lane in group], dtype=np.int64)[lane_ids]
    # Only points the known lower bound does not already cover can
    # raise a lane's need.
    short = demand > vec.sbf_server_at(pis, known[lane_ids], points)
    lane_ids = lane_ids[short]
    need = known.copy()
    if lane_ids.size:
        np.maximum.at(
            need,
            lane_ids,
            _point_budgets(
                pis[short], known[lane_ids], points[short], demand[short]
            ),
        )
    return {lane.index: int(value) for lane, value in zip(group, need)}


def _point_budgets(
    pis: np.ndarray, known: np.ndarray, t: np.ndarray, demand: np.ndarray
) -> np.ndarray:
    """Per point, the least ``theta`` in ``(known, pi]`` whose Eq. (8)
    supply at ``t`` covers ``demand``, or ``pi + 1`` when none does.

    Needs ``sbf(pi, known, t) < demand``.  Eq. (8) is non-decreasing in
    ``theta``, so this is one lock-step bisection over every point:
    at most ``log2(pi + 1)`` numpy steps.
    """
    low = known + 1
    high = pis + 1
    while True:
        open_ = low < high
        if not open_.any():
            return low
        mid = (low + high) // 2
        covered = vec.sbf_server_at(pis, np.minimum(mid, pis), t) >= demand
        high = np.where(open_ & covered, mid, high)
        low = np.where(open_ & ~covered, mid + 1, low)


def minimum_budget(pi: int, tasks: TaskSet) -> Optional[int]:
    """Smallest ``theta`` such that ``(pi, theta)`` passes Theorem 4.

    A batch of one: see :func:`minimum_budgets_batched`.
    """
    return minimum_budgets_batched([(pi, tasks)])[0]


def choose_period(vm_tasks: TaskSet) -> int:
    """The seed server period of one VM: ``max(1, min_k D_k // 2)``.

    The classic rule keeping server latency below the tightest
    deadline; a VM without tasks gets period 50.
    """
    if len(vm_tasks) == 0:
        return 50
    return max(1, min(task.deadline for task in vm_tasks) // 2)


def design_servers(
    table: TimeSlotTable,
    vm_tasksets: Dict[int, TaskSet],
    *,
    periods: Optional[Dict[int, int]] = None,
    global_validation: bool = True,
    stats: Optional[BudgetSearchStats] = None,
) -> ServerDesign:
    """Dimension one server per VM and validate the set globally.

    Each VM's period is ``periods[vm]`` when the caller pins it and
    :func:`choose_period` otherwise; all budgets come from one
    :func:`minimum_budgets_batched` call (accounted in ``stats``).  VMs
    whose budget search fails are recorded in ``failures`` with a
    human-readable reason; the global Theorem-2 validation then runs
    over the successfully dimensioned servers (an infeasible VM already
    makes the design infeasible).
    """
    pins = periods or {}
    vm_ids = sorted(vm_tasksets)
    lanes = [
        (pins[vm] if vm in pins else choose_period(vm_tasksets[vm]), vm_tasksets[vm])
        for vm in vm_ids
    ]
    budgets = minimum_budgets_batched(lanes, stats=stats)
    servers: Dict[int, Tuple[int, int]] = {}
    failures: Dict[int, str] = {}
    for vm_id, (pi, tasks), theta in zip(vm_ids, lanes, budgets):
        if theta is None:
            failures[vm_id] = (
                f"no budget theta <= pi={pi} satisfies Theorem 4 for "
                f"VM {vm_id} (utilization {tasks.utilization:.3f})"
            )
            continue
        servers[vm_id] = (pi, theta)
    local_ok = not failures
    global_result: Optional[GSchedResult] = None
    if global_validation and servers:
        pairs = [servers[vm] for vm in sorted(servers)]
        try:
            global_result = gsched_schedulable(table, pairs)
        except ValueError as error:
            failures[-1] = f"global validation rejected the design: {error}"
            local_ok = False
    return ServerDesign(
        servers=servers,
        local_ok=local_ok,
        global_result=global_result,
        failures=failures,
    )


def bandwidth_of(servers: Sequence[Tuple[int, int]]) -> float:
    """``sum Theta/Pi`` of a server collection."""
    return sum(theta / pi for pi, theta in servers)

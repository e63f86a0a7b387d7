"""Server dimensioning: choosing ``Gamma_i = (Pi_i, Theta_i)`` per VM.

The paper assumes the servers are given; a usable system needs a way to
pick them.  This module holds the one budget search and the seed
designer built on it:

* :func:`minimum_budgets_batched` -- the minimum ``Theta`` passing the
  L-Sched test (Theorem 4) for many ``(Pi, tasks)`` lanes at once, by
  lock-step binary search with the closed-form harmonic fast path
  (:func:`harmonic_fast_budget`); :func:`minimum_budget` is a batch of
  one.
* :func:`design_servers` -- one server per VM at the period the caller
  pins or :func:`choose_period` picks, budgets from one batched search,
  validated globally with Theorem 2.  It is the analytic designer and
  the incumbent seed of :func:`repro.synth.servers.synthesize_servers`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.gsched_test import GSchedResult, gsched_schedulable
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

    ``oracle_calls`` counts Theorem-4 lanes submitted to the batch
    oracle (the quantity the synthesis differential tests bound), ``pruned``
    the candidate lanes eliminated by the utilization lower bound
    before any oracle call, ``rounds`` the lock-step binary-search
    iterations (each round is one :func:`lsched_schedulable_batch`
    numpy pass over every still-undecided lane), and ``fast_path`` the
    lanes whose window :func:`harmonic_fast_budget` shrank.
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
    design, the period cannot improve on it.  It is also where
    :func:`minimum_budgets_batched` starts each lane's search.
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
    :func:`minimum_budgets_batched` shrinks the lane's binary-search
    window to ``[floor, theta_fast]`` and skips the probe at the cap.

    Returns ``None`` when the set is empty or not harmonic/implicit (no
    fast path) or the closed form lands above ``pi`` (window unchanged).
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
    engine: Optional[str] = None,
    stats: Optional[BudgetSearchStats] = None,
) -> List[Optional[int]]:
    """Smallest ``theta`` passing Theorem 4 for each ``(pi, tasks)`` lane.

    Lane ``i`` returns the least ``theta`` in
    ``[utilization_budget_floor(pi, tasks), pi]`` such that
    ``(pi, theta)`` passes Theorem 4, or ``None`` when even
    ``theta = pi`` fails; an empty task set gets ``1``.  Schedulability
    is monotone in theta (sbf(Gamma, t) is non-decreasing in theta for
    fixed pi), so each lane binary-searches its window.

    The searches run in *lock step*: every round packs the
    still-undecided lanes' probes into one
    :func:`~repro.analysis.batched.lsched_schedulable_batch` call, so a
    whole candidate frontier costs ``O(log max_pi)`` numpy passes
    instead of one engine dispatch per probe.  Round 0 probes each
    lane's cap ``theta = pi``; lanes with a
    :func:`harmonic_fast_budget` skip it and search
    ``[floor, theta_fast]`` instead, since the closed form already
    passes.

    ``bandwidth_bounds`` enables the synthesis search's incumbent-bound
    early exit: a lane whose utilization floor already implies
    bandwidth ``>= bandwidth_bounds[i]`` can never improve on the
    incumbent and is pruned to ``None`` without touching the oracle.
    Pass ``None`` (or per-lane ``None``) to disable pruning.
    """
    from repro.analysis.batched import lsched_schedulable_batch

    count = len(candidates)
    results: List[Optional[int]] = [None] * count
    # Per-lane closed interval [low, high] still to be searched; None
    # marks a decided lane.
    windows: List[Optional[Tuple[int, int]]] = [None] * count
    cap_probes: List[Tuple[int, int, TaskSet]] = []
    cap_lanes: List[int] = []
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
        if fast is not None:
            windows[index] = (low, fast)
            continue
        windows[index] = (low, pi)
        cap_probes.append((pi, pi, tasks))
        cap_lanes.append(index)
    # Round 0: lanes failing at the cap are infeasible for this period.
    if cap_probes:
        if stats is not None:
            stats.oracle_calls += len(cap_probes)
            stats.rounds += 1
        for lane, verdict in zip(
            cap_lanes, lsched_schedulable_batch(cap_probes, engine=engine)
        ):
            if not verdict.schedulable:
                windows[lane] = None
    # Lock-step binary search over every still-open window.
    while True:
        probes: List[Tuple[int, int, TaskSet]] = []
        lanes: List[int] = []
        for index, window in enumerate(windows):
            if window is None:
                continue
            low, high = window
            if low >= high:
                results[index] = low
                windows[index] = None
                continue
            mid = (low + high) // 2
            probes.append((candidates[index][0], mid, candidates[index][1]))
            lanes.append(index)
        if not probes:
            break
        if stats is not None:
            stats.oracle_calls += len(probes)
            stats.rounds += 1
        for lane, probe, verdict in zip(
            lanes, probes, lsched_schedulable_batch(probes, engine=engine)
        ):
            low, high = windows[lane]  # type: ignore[misc]
            mid = probe[1]
            windows[lane] = (low, mid) if verdict.schedulable else (mid + 1, high)
    return results


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
    engine: Optional[str] = None,
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
    budgets = minimum_budgets_batched(lanes, engine=engine, stats=stats)
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
            global_result = gsched_schedulable(table, pairs, engine=engine)
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

"""Server dimensioning: choosing ``Gamma_i = (Pi_i, Theta_i)`` per VM.

The paper assumes the servers are given; a usable system needs a way to
pick them.  This module implements the standard periodic-resource-model
recipe: choose each ``Pi_i`` from the VM's timing granularity, then find
the minimum ``Theta_i`` passing the L-Sched test (Theorem 4), and finally
validate the chosen server set globally with Theorem 2.  Three period
policies are provided for the ablation study called out in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.gsched_test import GSchedResult, gsched_schedulable
from repro.analysis.lsched_test import lsched_schedulable
from repro.core.timeslot import TimeSlotTable
from repro.tasks.taskset import TaskSet

#: Supported period policies for :func:`design_servers`.
PERIOD_POLICIES = ("min_deadline", "harmonic", "uniform")


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


def minimum_budget(
    pi: int,
    tasks: TaskSet,
    *,
    theta_cap: Optional[int] = None,
) -> Optional[int]:
    """Smallest ``theta`` such that (pi, theta) passes Theorem 4.

    Binary-searches theta in ``[ceil(U * pi), cap]`` -- schedulability is
    monotone in theta because sbf(Gamma, t) is non-decreasing in theta
    for fixed pi.  Returns None when even ``theta = cap`` fails.
    """
    if pi < 1:
        raise ValueError(f"server period must be >= 1, got {pi}")
    cap = theta_cap if theta_cap is not None else pi
    cap = min(cap, pi)
    if len(tasks) == 0:
        return 1
    low = max(1, int(math.ceil(tasks.utilization * pi)))
    if low > cap:
        return None
    if not lsched_schedulable(pi, cap, tasks).schedulable:
        return None
    high = cap
    while low < high:
        mid = (low + high) // 2
        if lsched_schedulable(pi, mid, tasks).schedulable:
            high = mid
        else:
            low = mid + 1
    return low


@dataclass
class BudgetSearchStats:
    """Accounting for one batched minimum-budget search.

    ``oracle_calls`` counts Theorem-4 lanes submitted to the batch
    oracle (the quantity the synthesis differential tests bound), ``pruned``
    the candidate lanes eliminated by the utilization lower bound
    before any oracle call, and ``rounds`` the lock-step binary-search
    iterations (each round is one :func:`lsched_schedulable_batch`
    numpy pass over every still-undecided lane).
    """

    oracle_calls: int = 0
    pruned: int = 0
    rounds: int = 0

    def merge(self, other: "BudgetSearchStats") -> None:
        self.oracle_calls += other.oracle_calls
        self.pruned += other.pruned
        self.rounds += other.rounds


def utilization_budget_floor(pi: int, tasks: TaskSet) -> int:
    """The utilization lower bound on ``theta`` for period ``pi``.

    No budget below ``ceil(U * pi)`` can pass Theorem 4 (the server
    would deliver less bandwidth than the tasks demand), so this is a
    sound per-node bound for pruning candidate periods: if even the
    floor's bandwidth ``floor/pi`` is no better than an incumbent
    design, the period cannot improve on it.  Matches the search floor
    of :func:`minimum_budget` exactly (same float-ceiling evaluation).
    """
    if pi < 1:
        raise ValueError(f"server period must be >= 1, got {pi}")
    if len(tasks) == 0:
        return 1
    return max(1, int(math.ceil(tasks.utilization * pi)))


def minimum_budgets_batched(
    candidates: Sequence[Tuple[int, TaskSet]],
    *,
    theta_cap: Optional[int] = None,
    theta_caps: Optional[Sequence[Optional[int]]] = None,
    cap_feasible: Optional[Sequence[bool]] = None,
    bandwidth_bounds: Optional[Sequence[Optional[float]]] = None,
    engine: Optional[str] = None,
    stats: Optional[BudgetSearchStats] = None,
) -> List[Optional[int]]:
    """:func:`minimum_budget` over many ``(pi, tasks)`` lanes at once.

    Runs the per-lane binary searches in *lock step*: every round packs
    the still-undecided lanes' probes into one
    :func:`~repro.analysis.batched.lsched_schedulable_batch` call, so a
    whole candidate frontier costs ``O(log max_pi)`` numpy passes
    instead of one engine dispatch per probe.  Lane ``i`` returns
    exactly ``minimum_budget(*candidates[i], theta_cap=theta_cap)``
    (``None`` when infeasible) -- the probes, floors and caps are
    identical, only their submission is batched.

    ``bandwidth_bounds`` enables the synthesis search's incumbent-bound
    early exit: a lane whose utilization floor
    (:func:`utilization_budget_floor`) already implies bandwidth
    ``>= bandwidth_bounds[i]`` can never improve on the incumbent and is
    pruned to ``None`` without touching the oracle.  Pass ``None`` (or
    per-lane ``None``) to disable pruning; pruned lanes are the only
    permitted divergence from the per-lane reference.

    ``theta_caps`` overrides ``theta_cap`` per lane (still clamped to
    ``pi``), and ``cap_feasible[i] = True`` asserts that lane ``i``'s
    cap is already known to pass Theorem 4, skipping its round-0 cap
    probe -- the synthesis fast path uses both to hand over a window
    whose upper end it has proved sufficient in closed form.  Soundness
    note: asserting feasibility of an infeasible cap would return the
    cap itself instead of ``None``; only pass caps verified against the
    same oracle.
    """
    from repro.analysis.batched import lsched_schedulable_batch

    count = len(candidates)
    results: List[Optional[int]] = [None] * count
    # Per-lane closed interval [low, high] still to be searched; None
    # marks a decided lane.
    windows: List[Optional[Tuple[int, int]]] = [None] * count
    seed_probes: List[Tuple[int, int, TaskSet]] = []
    seed_lanes: List[int] = []
    for index, (pi, tasks) in enumerate(candidates):
        if pi < 1:
            raise ValueError(f"server period must be >= 1, got {pi}")
        cap: Optional[int] = theta_cap
        if theta_caps is not None and theta_caps[index] is not None:
            cap = theta_caps[index]
        cap = min(cap if cap is not None else pi, pi)
        if len(tasks) == 0:
            results[index] = 1
            continue
        low = utilization_budget_floor(pi, tasks)
        if low > cap:
            continue
        bound = bandwidth_bounds[index] if bandwidth_bounds is not None else None
        if bound is not None and low / pi >= bound:
            if stats is not None:
                stats.pruned += 1
            continue
        windows[index] = (low, cap)
        if cap_feasible is not None and cap_feasible[index]:
            continue
        seed_probes.append((pi, cap, tasks))
        seed_lanes.append(index)
    # Round 0: the cap-feasibility probe every per-lane search starts
    # with; lanes failing at the cap are infeasible for this period.
    if seed_probes:
        if stats is not None:
            stats.oracle_calls += len(seed_probes)
            stats.rounds += 1
        for lane, verdict in zip(
            seed_lanes, lsched_schedulable_batch(seed_probes, engine=engine)
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


def choose_period(
    vm_tasks: TaskSet,
    policy: str,
    *,
    uniform_period: int = 50,
    divisor: int = 2,
) -> int:
    """Pick a server period for one VM under the given policy.

    * ``min_deadline`` -- ``max(1, min_k D_k // divisor)``: the classic
      rule keeping server latency below the tightest deadline.
    * ``harmonic`` -- largest power of two not exceeding the
      min-deadline choice (keeps hyper-periods small).
    * ``uniform`` -- a fixed period for every VM.
    """
    if policy not in PERIOD_POLICIES:
        raise ValueError(
            f"unknown period policy {policy!r}; expected one of {PERIOD_POLICIES}"
        )
    if policy == "uniform" or len(vm_tasks) == 0:
        return max(1, uniform_period)
    tightest = min(task.deadline for task in vm_tasks)
    base = max(1, tightest // divisor)
    if policy == "min_deadline":
        return base
    # harmonic
    return 1 << max(0, base.bit_length() - 1)


def design_servers(
    table: TimeSlotTable,
    vm_tasksets: Dict[int, TaskSet],
    *,
    policy: str = "min_deadline",
    uniform_period: int = 50,
    global_validation: bool = True,
) -> ServerDesign:
    """Dimension one server per VM and validate the set globally.

    For each VM the period comes from :func:`choose_period` and the
    budget from :func:`minimum_budget`.  VMs whose budget search fails
    are recorded in ``failures`` with a human-readable reason; the global
    Theorem-2 validation then runs over the successfully dimensioned
    servers (an infeasible VM already makes the design infeasible).
    """
    servers: Dict[int, Tuple[int, int]] = {}
    failures: Dict[int, str] = {}
    for vm_id in sorted(vm_tasksets):
        tasks = vm_tasksets[vm_id]
        pi = choose_period(tasks, policy, uniform_period=uniform_period)
        theta = minimum_budget(pi, tasks)
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

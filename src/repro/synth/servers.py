"""Bandwidth-minimal server selection (Πᵢ, Θᵢ per VM).

The paper states Theorems 1-4 *given* the servers; this module computes
them.  The search minimizes the total server bandwidth ``ΣΘᵢ/Πᵢ`` (the
share of the R-channel the design reserves) subject to every theorem
passing:

1. **Seed** per VM: :func:`~repro.analysis.servers.design_servers` at
   the caller-pinned period or the one
   :func:`~repro.analysis.servers.choose_period` picks -- the incumbent,
   so synthesis can never do worse than the seed designer.
2. **Candidate periods** per VM: divisors of the table hyper-period
   ``H`` (a server period dividing ``H`` tiles exactly into sigma*, so
   the G-Sched grids stay hyper-period-bounded), clipped to the VM's
   tightest deadline, plus the seed period.  Their minimum budgets come
   from the one budget search,
   :func:`~repro.analysis.servers.minimum_budgets_batched` (a whole
   frontier of Theorem-4 probes per numpy pass, with the closed-form
   harmonic fast path); the seed's lanes are not searched again, and
   the other candidates whose utilization floor already meets the
   seed's bandwidth are pruned without touching the oracle.
3. **Assembly** of one candidate per VM by best-first branch-and-bound
   (:func:`~repro.synth.search.best_first_assignment`): assignments are
   enumerated in non-decreasing total bandwidth with exact ``Fraction``
   bounds and verified against Theorem 2 in batched frontiers, so the
   first accepted assignment is bandwidth-minimal over the grid.  The
   search stops at the first assignment over the table's free bandwidth
   ``F/H``, which Theorem 2 rejects, as it does every later one.

Everything is deterministic; ties break lexicographically.  The outcome
carries the chosen servers, full verification results, and the search
provenance consumed by :class:`~repro.synth.report.SynthesisReport`.
The final Theorem-4 lanes are re-run as one batch; the final Theorem-2
verdict is the one the assembly oracle gave the chosen assignment, and
only the seed fallback runs Theorem 2 again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.batched import gsched_schedulable_batch, lsched_schedulable_batch
from repro.analysis.gsched_test import GSchedResult, gsched_schedulable
from repro.analysis.lsched_test import LSchedResult
from repro.analysis.servers import (
    BudgetSearchStats,
    ServerDesign,
    bandwidth_of,
    choose_period,
    design_servers,
    minimum_budgets_batched,
)
from repro.core.timeslot import TimeSlotTable
from repro.synth.search import SearchStats, best_first_assignment
from repro.tasks.generators import divisors
from repro.tasks.taskset import TaskSet

#: Frontier width for the Theorem-2 assembly rounds.
ASSEMBLY_BATCH_WIDTH = 16

#: Node cap for the assembly search; on exhaustion the seed design wins.
ASSEMBLY_MAX_NODES = 4_096


@dataclass
class ServerSearchOutcome:
    """Everything the server-selection search learned.

    ``servers`` is the chosen design (vm_id -> (pi, theta));
    ``local_results``/``global_result`` its Theorem-4/Theorem-2
    verification; ``seed`` the seed design used as the incumbent;
    ``stats`` the search provenance.  ``improved`` records whether the
    search beat the seed's bandwidth (as opposed to matching it).
    ``fast_path_vms`` counts budget-search *lanes* (candidate periods,
    not VMs) that took the harmonic fast path.
    """

    servers: Dict[int, Tuple[int, int]]
    feasible: bool
    local_results: Dict[int, LSchedResult] = field(default_factory=dict)
    global_result: Optional[GSchedResult] = None
    failures: Dict[int, str] = field(default_factory=dict)
    seed: Optional[ServerDesign] = None
    stats: SearchStats = field(default_factory=SearchStats)
    improved: bool = False
    fast_path_vms: int = 0

    @property
    def bandwidth(self) -> float:
        return bandwidth_of(sorted(self.servers.values()))

    def as_pairs(self) -> List[Tuple[int, int]]:
        return [self.servers[vm] for vm in sorted(self.servers)]

    def as_design(self) -> ServerDesign:
        """Back-compat :class:`ServerDesign` view of the outcome."""
        return ServerDesign(
            servers=dict(self.servers),
            local_ok=self.feasible or not self.failures,
            global_result=self.global_result,
            failures=dict(self.failures),
        )


def candidate_periods_for(table: TimeSlotTable, tasks: TaskSet) -> Tuple[int, ...]:
    """The candidate server periods for one VM, sorted ascending.

    Divisors of the table hyper-period (so the synthesized ``Pi`` never
    enlarges any LCM the analysis takes), clipped to the VM's tightest
    deadline (a server period beyond it cannot deliver a full budget
    window before the deadline), always including the seed period
    :func:`~repro.analysis.servers.choose_period` picks.
    """
    seed = choose_period(tasks)
    ceiling = min(task.deadline for task in tasks) if len(tasks) else seed
    grid = {
        value
        for value in (divisors(table.total_slots) if table.total_slots > 1 else ())
        if 1 <= value <= ceiling
    }
    grid.add(seed)
    return tuple(sorted(grid))


def synthesize_servers(
    table: TimeSlotTable,
    vm_tasksets: Dict[int, TaskSet],
    *,
    fixed: Optional[Dict[int, Tuple[int, int]]] = None,
    pinned_periods: Optional[Dict[int, int]] = None,
    stats: Optional[SearchStats] = None,
) -> ServerSearchOutcome:
    """Search a bandwidth-minimal verified server design.

    ``fixed`` pins whole ``(pi, theta)`` pairs (VMs the caller specified
    completely); ``pinned_periods`` pins a VM's period but synthesizes
    its budget (a ``ServerConfig`` with ``theta=None``).  All remaining
    VMs get the full candidate-period grid.  The seed design from
    :func:`~repro.analysis.servers.design_servers` (pinned periods, else
    :func:`~repro.analysis.servers.choose_period`) is the incumbent: the
    returned design's bandwidth is never worse than the seed's, and
    when the seed itself is infeasible the search may still succeed.
    """
    stats = stats if stats is not None else SearchStats()
    fixed = dict(fixed or {})
    pinned_periods = dict(pinned_periods or {})
    outcome = ServerSearchOutcome(servers={}, feasible=False, stats=stats)
    vm_ids = sorted(vm_tasksets)
    if not vm_ids:
        outcome.feasible = True
        return outcome

    # -- the seed: one budget search at each open VM's seed period -------
    open_vms = [vm for vm in vm_ids if vm not in fixed]
    seed_periods = {
        vm: pinned_periods[vm] if vm in pinned_periods else choose_period(vm_tasksets[vm])
        for vm in open_vms
    }
    budget_stats = BudgetSearchStats()
    seed = design_servers(
        table,
        {vm: vm_tasksets[vm] for vm in open_vms},
        periods=seed_periods,
        global_validation=False,
        stats=budget_stats,
    )
    outcome.seed = seed

    # -- the rest of the grid, pruned by the seed's bandwidth -------------
    # A pinned period is its VM's only candidate, so the seed searched it.
    lane_specs: List[Tuple[int, int, TaskSet]] = []  # (vm, pi, tasks)
    bounds: List[Optional[float]] = []
    for vm in open_vms:
        if vm in pinned_periods:
            continue
        tasks = vm_tasksets[vm]
        seed_pair = seed.servers.get(vm)
        bound = seed_pair[1] / seed_pair[0] if seed_pair is not None else None
        for pi in candidate_periods_for(table, tasks):
            if pi != seed_periods[vm]:
                lane_specs.append((vm, pi, tasks))
                bounds.append(bound)
    budgets = minimum_budgets_batched(
        [(pi, tasks) for _vm, pi, tasks in lane_specs],
        bandwidth_bounds=bounds,
        stats=budget_stats,
    )
    stats.absorb_budget(budget_stats)
    outcome.fast_path_vms = budget_stats.fast_path

    # -- rank candidates per VM -----------------------------------------
    per_vm: Dict[int, List[Tuple[Fraction, int, int]]] = {vm: [] for vm in vm_ids}
    for vm, (pi, theta) in seed.servers.items():
        per_vm[vm].append((Fraction(theta, pi), pi, theta))
    for (vm, pi, _tasks), theta in zip(lane_specs, budgets):
        if theta is not None:
            per_vm[vm].append((Fraction(theta, pi), pi, theta))
    for vm, pair in sorted(fixed.items()):
        if vm in per_vm:
            per_vm[vm] = [(Fraction(pair[1], pair[0]), pair[0], pair[1])]
    for vm in vm_ids:
        per_vm[vm].sort()
        if not per_vm[vm]:
            tasks = vm_tasksets[vm]
            outcome.failures[vm] = seed.failures.get(
                vm,
                f"no candidate (pi, theta) satisfies Theorem 4 for VM {vm} "
                f"(utilization {tasks.utilization:.3f})",
            )
    if outcome.failures:
        outcome.servers = dict(seed.servers)
        outcome.servers.update(fixed)
        return outcome

    # -- assemble: best-first over total bandwidth, Theorem-2 oracle ----
    groups = [per_vm[vm] for vm in vm_ids]
    objectives = [[candidate[0] for candidate in group] for group in groups]

    def pairs_of(node: Tuple[int, ...]) -> List[Tuple[int, int]]:
        return [
            (group[index][1], group[index][2])
            for group, index in zip(groups, node)
        ]

    # The Theorem-2 verdict of every node the oracle accepts: the chosen
    # node's verdict is the final global verification, not run again.
    accepted: Dict[Tuple[int, ...], GSchedResult] = {}

    def feasible_batch(nodes: Sequence[Tuple[int, ...]]) -> List[bool]:
        verdicts = gsched_schedulable_batch([(table, pairs_of(node)) for node in nodes])
        for node, verdict in zip(nodes, verdicts):
            if verdict.schedulable:
                accepted[node] = verdict
        return [bool(verdict.schedulable) for verdict in verdicts]

    chosen = best_first_assignment(
        objectives,
        feasible_batch,
        stats=stats,
        batch_width=ASSEMBLY_BATCH_WIDTH,
        max_nodes=ASSEMBLY_MAX_NODES,
        max_cost=Fraction(table.free_slots, table.total_slots),
    )

    if chosen is not None:
        outcome.servers = {
            vm: (groups[position][index][1], groups[position][index][2])
            for position, (vm, index) in enumerate(zip(vm_ids, chosen))
        }
    else:
        # Grid exhausted without a Theorem-2 pass: fall back to the seed
        # (+ fixed pairs), which final verification below adjudicates.
        outcome.servers = dict(seed.servers)
        outcome.servers.update(fixed)
        outcome.failures[-1] = (
            "no candidate assignment passed Theorem 2; falling back to the "
            "policy seed design"
        )

    # -- final verification (stored as the report's evidence) -----------
    ordered = [(vm, outcome.servers[vm]) for vm in sorted(outcome.servers)]
    lanes = [
        (pair[0], pair[1], vm_tasksets[vm]) for vm, pair in ordered
    ]
    # The "+ 1" is the Theorem-2 lane: the assembly's verdict for the
    # chosen node, reused, or the seed fallback's check below.
    stats.oracle_calls += len(lanes) + 1
    stats.rounds += 1
    local = lsched_schedulable_batch(lanes)
    outcome.local_results = {vm: result for (vm, _), result in zip(ordered, local)}
    if chosen is not None:
        outcome.global_result = accepted[chosen]
    else:
        outcome.global_result = gsched_schedulable(table, [pair for _vm, pair in ordered])
    outcome.feasible = (
        all(result.schedulable for result in local)
        and outcome.global_result.schedulable
    )
    if outcome.feasible:
        outcome.failures.pop(-1, None)
        seed_pairs = sorted(seed.servers.values()) + sorted(fixed.values())
        if seed.servers and len(seed.servers) + len(fixed) == len(vm_ids):
            outcome.improved = outcome.bandwidth < bandwidth_of(seed_pairs)
    return outcome

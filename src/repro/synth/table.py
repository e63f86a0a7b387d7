"""Slot-table synthesis: computing sigma* from an integer model.

:func:`~repro.core.timeslot.build_pchannel_table` packs pre-defined
tasks greedily and cannot express *relations between jobs* -- a sensor
read that must precede the actuator write consuming it, a bus
transaction that needs a gap after its request phase.  This module
models the P-channel table exactly:

* every job of every strictly-periodic pre-defined task (release
  ``offset + j*T``, window ``[release, release + D)``) must receive
  ``C`` distinct slots inside its window, with windows wrapping across
  the hyper-period boundary (slot indices are taken mod ``H``);
* slots are exclusive (one I/O resource);
* :class:`TableConstraint` imposes precedence with minimum / maximum
  time lags between same-index jobs of two equal-period tasks.

The model is solved to the *lexicographically minimal* feasible
assignment under a canonical decision order (jobs by release then
constraint rank, slots of a job ascending, candidate offsets in the
chosen ``objective`` order) by
:func:`~repro.synth.search.lexmin_backtrack`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.timeslot import MAX_TABLE_LENGTH, TimeSlotTable
from repro.synth.search import SearchStats, lexmin_backtrack
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet

#: Supported slot-preference orders (mirrors timeslot.PLACEMENTS).
OBJECTIVES = ("spread", "packed")


@dataclass(frozen=True)
class TableConstraint:
    """Precedence with time lag between two pre-defined tasks.

    For every job index ``j``, job ``j`` of ``after`` must start at
    least ``min_lag`` slots after job ``j`` of ``before`` completes
    (``min_lag = 0``: merely afterwards), and -- when ``max_lag`` is set
    -- at most ``max_lag`` slots after.  Both tasks must have the same
    period (same job cadence) and ``before.offset <= after.offset``
    (the decision order releases the predecessor first).
    """

    before: str
    after: str
    min_lag: int = 0
    max_lag: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_lag < 0:
            raise ValueError(f"min_lag must be >= 0, got {self.min_lag}")
        if self.max_lag is not None and self.max_lag < self.min_lag:
            raise ValueError(
                f"max_lag {self.max_lag} < min_lag {self.min_lag} "
                f"for {self.before!r} -> {self.after!r}"
            )
        if self.before == self.after:
            raise ValueError(f"constraint relates {self.before!r} to itself")


@dataclass
class _Job:
    """One job of a pre-defined task, in absolute (unwrapped) slots."""

    task: IOTask
    index: int
    release: int

    @property
    def window_end(self) -> int:
        return self.release + self.task.deadline


@dataclass
class TableSynthesis:
    """Outcome of one slot-table synthesis."""

    feasible: bool
    hyperperiod: int
    table: Optional[TimeSlotTable] = None
    #: task name -> per-job absolute slot lists (sorted by job index).
    placements: Dict[str, List[List[int]]] = field(default_factory=dict)
    stats: SearchStats = field(default_factory=SearchStats)
    reason: str = ""
    #: Device/slot of the blocking job when infeasibility is localized.
    failed_device: Optional[str] = None
    failed_slot: Optional[int] = None

    def pattern(self) -> List[int]:
        """The 0/1 occupancy pattern (empty when infeasible)."""
        return self.table.occupancy_pattern() if self.table is not None else []


class _TableModel:
    """The integer model in its canonical decision order.

    :meth:`choices` is the single source of truth for domains and
    constraints, so lex-min w.r.t. it defines "the" solution.
    """

    def __init__(
        self,
        tasks: List[IOTask],
        constraints: Sequence[TableConstraint],
        hyperperiod: int,
        objective: str,
        forbidden: Set[int],
    ) -> None:
        self.h = hyperperiod
        self.forbidden = forbidden
        rank = _constraint_ranks(tasks, constraints)
        self.jobs: List[_Job] = []
        for task in tasks:
            for index in range(hyperperiod // task.period):
                self.jobs.append(
                    _Job(task, index, task.offset + index * task.period)
                )
        # Canonical order: release, then constraint rank (predecessors
        # first among simultaneous releases), then the stable task key.
        self.jobs.sort(
            key=lambda job: (
                job.release,
                rank[job.task.name],
                job.task.deadline,
                job.task.period,
                job.task.name,
                job.index,
            )
        )
        #: Decision ``level`` -> (job position, slot ordinal k).
        self.decisions: List[Tuple[int, int]] = []
        #: Job position -> decision level of its slot 0.
        self.first_level: Dict[int, int] = {}
        for position, job in enumerate(self.jobs):
            self.first_level[position] = len(self.decisions)
            for k in range(job.task.wcet):
                self.decisions.append((position, k))
        self.position_of: Dict[Tuple[str, int], int] = {
            (job.task.name, job.index): position
            for position, job in enumerate(self.jobs)
        }
        self.candidates = [
            _candidate_offsets(job, objective) for job in self.jobs
        ]
        #: (after name, job index) -> [(before position, min, max)].
        self.predecessors: Dict[int, List[Tuple[int, int, Optional[int]]]] = {}
        for constraint in constraints:
            for position, job in enumerate(self.jobs):
                if job.task.name != constraint.after:
                    continue
                before = self.position_of[(constraint.before, job.index)]
                self.predecessors.setdefault(position, []).append(
                    (before, constraint.min_lag, constraint.max_lag)
                )

    @property
    def depth(self) -> int:
        return len(self.decisions)

    def bounds(
        self, prefix: Tuple[int, ...], level: int
    ) -> Optional[Tuple[int, int]]:
        """``[floor, ceiling)`` for decision ``level`` under ``prefix``.

        ``None`` when a precedence predecessor is not fully decided yet
        -- impossible under the canonical order (validated at model
        build), so it signals an infeasible branch.
        """
        position, k = self.decisions[level]
        job = self.jobs[position]
        floor = prefix[level - 1] + 1 if k > 0 else job.release
        ceiling = job.window_end
        if k == 0:
            for before, min_lag, max_lag in self.predecessors.get(position, ()):
                pred_job = self.jobs[before]
                pred_first = self.first_level[before]
                pred_end = pred_first + pred_job.task.wcet
                if pred_end > level:
                    return None
                pred_last = prefix[pred_end - 1]
                floor = max(floor, pred_last + 1 + min_lag)
                if max_lag is not None:
                    ceiling = min(ceiling, pred_last + 2 + max_lag)
        return floor, ceiling

    def choices(self, prefix: Tuple[int, ...], level: int) -> Iterable[int]:
        bounds = self.bounds(prefix, level)
        if bounds is None:
            return
        floor, ceiling = bounds
        position, k = self.decisions[level]
        job = self.jobs[position]
        used = {value % self.h for value in prefix}
        remaining = job.task.wcet - k
        for value in self.candidates[position]:
            if not floor <= value < ceiling:
                continue
            if job.window_end - value < remaining:
                continue
            absolute = value % self.h
            if absolute in used or absolute in self.forbidden:
                continue
            yield value

    def standalone_blocked(self) -> Optional[_Job]:
        """A job that cannot be placed even on an empty table, if any."""
        for job in self.jobs:
            available = {
                (job.release + offset) % self.h
                for offset in range(job.task.deadline)
            } - self.forbidden
            if len(available) < job.task.wcet:
                return job
        return None


def _constraint_ranks(
    tasks: List[IOTask], constraints: Sequence[TableConstraint]
) -> Dict[str, int]:
    """Longest-chain depth of each task in the precedence DAG.

    Used as a sort tie-break so predecessors are decided before their
    successors when releases coincide.  Cycles raise ``ValueError``.
    """
    names = [task.name for task in tasks]
    edges: Dict[str, List[str]] = {name: [] for name in names}
    indegree = {name: 0 for name in names}
    for constraint in constraints:
        edges[constraint.before].append(constraint.after)
        indegree[constraint.after] += 1
    rank = {name: 0 for name in names}
    queue = sorted(name for name in names if indegree[name] == 0)
    processed = 0
    while queue:
        name = queue.pop(0)
        processed += 1
        for successor in sorted(edges[name]):
            rank[successor] = max(rank[successor], rank[name] + 1)
            indegree[successor] -= 1
            if indegree[successor] == 0:
                queue.append(successor)
    if processed != len(names):
        raise ValueError("precedence constraints form a cycle")
    return rank


def _validate_model(
    tasks: List[IOTask],
    constraints: Sequence[TableConstraint],
    hyperperiod: Optional[int],
) -> int:
    by_name = {task.name: task for task in tasks}
    if len(by_name) != len(tasks):
        raise ValueError("pre-defined task names must be unique")
    for task in tasks:
        if task.deadline < task.wcet:
            raise ValueError(
                f"task {task.name!r} cannot fit C={task.wcet} slots in a "
                f"D={task.deadline} window"
            )
        if not 0 <= task.offset < task.period:
            raise ValueError(
                f"task {task.name!r} offset {task.offset} outside [0, T)"
            )
    lcm = reduce(math.lcm, (task.period for task in tasks), 1)
    h = hyperperiod if hyperperiod is not None else lcm
    if h % lcm != 0:
        raise ValueError(
            f"hyperperiod {h} is not a multiple of the task LCM {lcm}"
        )
    if h > MAX_TABLE_LENGTH:
        raise ValueError(
            f"hyperperiod {h} exceeds the table cap {MAX_TABLE_LENGTH}"
        )
    for constraint in constraints:
        for name in (constraint.before, constraint.after):
            if name not in by_name:
                raise ValueError(f"constraint references unknown task {name!r}")
        before = by_name[constraint.before]
        after = by_name[constraint.after]
        if before.period != after.period:
            raise ValueError(
                f"constraint {constraint.before!r} -> {constraint.after!r} "
                "relates tasks with different periods"
            )
        if before.offset > after.offset:
            raise ValueError(
                f"constraint {constraint.before!r} -> {constraint.after!r} "
                f"needs before.offset ({before.offset}) <= after.offset "
                f"({after.offset}); shift the release offsets"
            )
    return h


def _candidate_offsets(job: _Job, objective: str) -> List[int]:
    """The job's candidate absolute slots, in preference order."""
    window = job.task.deadline
    if objective == "packed":
        return [job.release + offset for offset in range(window)]
    # "spread": cyclic probing from the evenly-spaced ideal points, the
    # same preference build_pchannel_table's spread placement uses; the
    # remaining offsets follow ascending as a deterministic tail.
    stride = window / job.task.wcet
    ordered: List[int] = []
    seen = set()
    for k in range(job.task.wcet):
        ideal = int(k * stride)
        for probe in range(window):
            offset = (ideal + probe) % window
            if offset not in seen:
                seen.add(offset)
                ordered.append(job.release + offset)
                break
    for offset in range(window):
        if offset not in seen:
            ordered.append(job.release + offset)
    return ordered


def synthesize_table(
    predefined: TaskSet,
    *,
    constraints: Sequence[TableConstraint] = (),
    hyperperiod: Optional[int] = None,
    objective: str = "spread",
    fixed_free: Sequence[int] = (),
    stats: Optional[SearchStats] = None,
    max_nodes: int = 200_000,
) -> TableSynthesis:
    """Solve the integer table model to a canonical feasible sigma*.

    ``fixed_free`` pins slots (mod ``H``) that must stay free -- the
    hook for co-synthesis where the R-channel needs guaranteed gaps.
    Returns an infeasible :class:`TableSynthesis` (with ``reason``)
    rather than raising when the model admits no assignment; malformed
    models (unknown constraint names, C > D, precedence cycles, bad
    hyper-periods) raise ``ValueError``.
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
        )
    stats = stats if stats is not None else SearchStats()
    tasks = sorted(predefined, key=lambda task: (task.period, task.name))
    if not tasks:
        return TableSynthesis(
            feasible=True,
            hyperperiod=1,
            table=TimeSlotTable.empty(1),
            stats=stats,
        )
    h = _validate_model(tasks, constraints, hyperperiod)
    model = _TableModel(
        tasks, constraints, h, objective, {slot % h for slot in fixed_free}
    )
    assignment = lexmin_backtrack(
        model.depth, model.choices, stats=stats, max_nodes=max_nodes
    )
    if assignment is None:
        blocked = model.standalone_blocked()
        reason = (
            "no slot assignment satisfies the model "
            "(windows + precedence over-constrained)"
            if blocked is None
            else (
                f"no feasible slots for task {blocked.task.name!r} "
                f"(device {blocked.task.device!r}) job {blocked.index} "
                f"releasing at slot {blocked.release}"
            )
        )
        return TableSynthesis(
            feasible=False,
            hyperperiod=h,
            stats=stats,
            reason=reason,
            failed_device=None if blocked is None else blocked.task.device,
            failed_slot=None if blocked is None else blocked.release % h,
        )

    placements: Dict[str, List[List[int]]] = {}
    occupied: List[int] = []
    entries: Dict[int, IOTask] = {}
    for (position, _k), value in zip(model.decisions, assignment):
        job = model.jobs[position]
        slots = placements.setdefault(job.task.name, [])
        while len(slots) <= job.index:
            slots.append([])
        slots[job.index].append(value)
        occupied.append(value % h)
        entries[value % h] = job.task
    table = TimeSlotTable(h, occupied, entries)
    return TableSynthesis(
        feasible=True,
        hyperperiod=h,
        table=table,
        placements=placements,
        stats=stats,
    )


"""I/O-GUARD-x full-system model (Sec. V-C).

Drives the *real* hypervisor core from :mod:`repro.core` -- time slot
table, two-layer preemptive-EDF scheduler, per-VM I/O pools -- over the
shared workload instance:

* ``preload_fraction`` implements the paper's I/O-GUARD-x configuration
  ("x% of I/O tasks were executed by the P channel");
* pre-defined tasks get staggered start times, are packed into sigma*
  and executed by the P-channel at their table slots (their deadlines
  hold by construction);
* run-time tasks are released per the workload draws, cross the thin
  para-virtual driver path (the ``ioguard`` stack model plus a 1-2 hop
  NoC transfer: processors connect to the hypervisor "without involving
  arbiters/routers") and are scheduled by the two-layer scheduler.

The trial does Python work once per run-time job or per scheduling
run, not per slot, and runs no per-slot code path.  Jobs travel as
columns from the workload draw to the verdict: the trial reads the
workload as task-indexed columns (:attr:`WorkloadInstance.columns`), and
both channels take and return columns.  The P-channel's completions
(:meth:`PChannel.run_until`) are a task's table slots, tiled over the
horizon, cut into ``wcet``-slot jobs.  The R-channel's batch executor
(:meth:`RChannel.run_until`) takes every arrival up front as
:class:`~repro.core.rchannel.RChannelArrivals` columns (arrival slot,
VM, release, absolute deadline, work) and makes one pass per scheduling
run over per-VM heaps of rows in L-Sched order, where a G-Sched
decision holds until the granted job completes, its budget runs out, a
job arrives or a server period ends, and a stretch with no staged work
is skipped.  A
:class:`~repro.tasks.task.Job` is built only for a job the horizon cuts
off: one in flight on the P-channel, or one still queued in an I/O pool.
The two completion streams are merged by a stable argsort on slot, the
path delays are drawn in two array passes from per-task flit counts
(requests in release order, responses in completion order), and the
counted jobs are folded into the result in one
:meth:`TrialResult.record_batch`, so every result, counter and random
draw equals stepping each slot in turn.

Server dimensioning per trial is ``proportional`` by default (fast,
utilization-proportional budgets validated to fit the free bandwidth);
``analytic`` dimensioning via Theorems 2+4 is available for the
schedulability experiments.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.cache import register_cache
from repro.analysis.servers import design_servers
from repro.baselines.base import (
    IOVirtSystem,
    TrialResult,
    WorkloadInstance,
    task_flits,
)
from repro.core.gsched import ServerSpec
from repro.core.pchannel import PChannel
from repro.core.rchannel import RChannel, RChannelArrivals
from repro.core.timeslot import (
    TableMemo,
    TableOverflowError,
    TimeSlotTable,
    build_pchannel_table,
    stagger_offsets,
)
from repro.noc.latency import NocLatencyModel
from repro.sim.rng import RandomSource
from repro.tasks.task import Job, TaskKind
from repro.tasks.taskset import TaskSet

#: Default server period for proportional dimensioning (1 ms at the
#: case-study 10 us slot).
PROPORTIONAL_PERIOD = 100

#: Budget head-room multiplier over the VM's raw utilization.
PROPORTIONAL_MARGIN = 1.25

#: sigma* layouts of recent pre-defined sets.  A Fig. 7 round hands the
#: builder each set twice, in the 4-VM and the 8-VM cell of one
#: utilization, six builds apart; a value is at most ~130 KB.
TABLE_MEMO = register_cache("core.timeslot.table_memo", TableMemo(maxsize=8))


class IOGuardSystem(IOVirtSystem):
    """The proposed system at a given P-channel preload fraction."""

    stack_name = "ioguard"
    #: Processors connect directly to the hypervisor.
    request_hops = 1
    response_hops = 1
    noc_load_factor = 0.3

    def __init__(
        self,
        preload_fraction: float = 0.4,
        server_policy: str = "proportional",
        noc_model: Optional[NocLatencyModel] = None,
        placement: str = "spread",
    ):
        if not 0.0 <= preload_fraction <= 1.0:
            raise ValueError(
                f"preload fraction must lie in [0, 1], got {preload_fraction}"
            )
        if server_policy not in ("proportional", "analytic"):
            raise ValueError(
                f"server_policy must be 'proportional' or 'analytic', "
                f"got {server_policy!r}"
            )
        if placement not in ("spread", "contiguous"):
            raise ValueError(
                f"placement must be 'spread' or 'contiguous', got {placement!r}"
            )
        super().__init__(noc_model)
        self.preload_fraction = preload_fraction
        self.server_policy = server_policy
        self.placement = placement
        self.name = f"ioguard-{int(round(preload_fraction * 100))}"
        if placement != "spread":
            self.name += f"-{placement}"

    # -- configuration ------------------------------------------------------------

    def _split_with_fallback(
        self, taskset: TaskSet
    ) -> Tuple[TaskSet, TimeSlotTable]:
        """Apply the preload split, demoting tasks the table cannot hold.

        The table builder raises :class:`TableOverflowError` at very high
        pre-load utilization, when its search finds no table within its
        node cap; demoting the largest-period pre-defined task back to
        the R-channel and retrying converges because each demotion
        strictly reduces P-channel demand.  Tables come through
        :data:`TABLE_MEMO`, so a pre-defined set built before in this
        process is not searched again.
        """
        split = taskset.split_predefined(self.preload_fraction)
        while True:
            predefined = stagger_offsets(split.predefined())
            try:
                table = TABLE_MEMO.build(
                    predefined, self.placement, build_pchannel_table
                )
            except TableOverflowError:
                candidates = sorted(
                    split.predefined(),
                    key=lambda task: (-task.period, task.name),
                )
                if not candidates:
                    raise
                demoted = candidates[0]
                split[demoted.name].kind = TaskKind.RUNTIME
                continue
            # Rebuild the split set so task objects carry the staggered
            # offsets the table was built with.
            merged = TaskSet(name=split.name)
            merged.extend(predefined)
            merged.extend(
                task.renamed(task.name) for task in split.runtime()
            )
            return merged, table

    def _dimension_servers(
        self, table: TimeSlotTable, runtime: TaskSet
    ) -> List[ServerSpec]:
        vm_tasksets = runtime.by_vm()
        if not vm_tasksets:
            return []
        if self.server_policy == "analytic":
            design = design_servers(table, vm_tasksets)
            if design.servers:
                return [
                    ServerSpec(vm, pi, theta)
                    for vm, (pi, theta) in sorted(design.servers.items())
                ]
            # Fall through to proportional when analytic design fails.
        return self._proportional_servers(table, vm_tasksets)

    def _proportional_servers(
        self, table: TimeSlotTable, vm_tasksets: Dict[int, TaskSet]
    ) -> List[ServerSpec]:
        """Utilization-proportional budgets on a common period.

        Budgets are scaled down together when they would exceed the free
        bandwidth the table leaves -- the G-Sched cannot promise more
        than ``F/H``.
        """
        pi = PROPORTIONAL_PERIOD
        raw = {
            vm: max(1, math.ceil(tasks.utilization * pi * PROPORTIONAL_MARGIN))
            for vm, tasks in vm_tasksets.items()
        }
        free_budget = table.free_fraction * pi * 0.98
        total = sum(raw.values())
        if total > free_budget and total > 0:
            scale = free_budget / total
            raw = {vm: max(1, int(theta * scale)) for vm, theta in raw.items()}
        return [
            ServerSpec(vm, pi, min(pi, theta))
            for vm, theta in sorted(raw.items())
        ]

    # -- trial execution ---------------------------------------------------------------

    def run_trial(
        self, workload: WorkloadInstance, rng: RandomSource
    ) -> TrialResult:
        result = self._new_result(workload)
        config = workload.config
        split, table = self._split_with_fallback(workload.taskset)
        predefined, runtime = split.predefined(), split.runtime()
        servers = self._dimension_servers(table, runtime)

        pchannel = PChannel(predefined, table=table)
        rchannel = RChannel(servers, pool_capacity=max(64, len(runtime) * 4))

        load = min(0.95, workload.target_utilization * self.noc_load_factor)
        # Jobs are accounted by their task's position in the workload's
        # task set; ``split`` holds same-named copies of those tasks.
        tasks = list(workload.taskset)
        position = {task.name: index for index, task in enumerate(tasks)}
        flits = task_flits(tasks)
        is_runtime = np.zeros(len(tasks), dtype=bool)
        is_runtime[[position[task.name] for task in runtime]] = True
        columns = workload.columns
        rows = np.flatnonzero(is_runtime[columns.task])

        # Run-time arrivals: release + driver/NoC delay, drawn in release
        # order, then sorted by arrival slot; those at the horizon or
        # later never reach a pool.
        horizon = config.horizon_slots
        arrival_slots = np.ceil(
            columns.release[rows]
            + self.request_delays(flits[columns.task[rows]], load, rng, config)
        ).astype(np.int64)
        order = np.argsort(arrival_slots, kind="stable")
        order = order[: np.searchsorted(arrival_slots[order], horizon)]
        arriving = rows[order]
        arriving_tasks = columns.task[arriving]
        deadlines = np.array([task.deadline for task in tasks], dtype=np.int64)

        def make_job(row: int) -> Job:
            source = int(arriving[row])
            return tasks[int(columns.task[source])].job(
                release=int(columns.release[source]),
                index=int(columns.index[source]),
            )

        pcompleted = pchannel.run_until(horizon)
        rcompleted = rchannel.run_until(
            horizon,
            RChannelArrivals(
                arrival_slots[order],
                np.array([task.vm_id for task in tasks], dtype=np.int64)[arriving_tasks],
                columns.release[arriving],
                columns.release[arriving] + deadlines[arriving_tasks],
                columns.actual[arriving],
            ),
            table,
            make_job,
        )
        # Completions as (task position, release, slot) columns.  A slot
        # belongs to one channel and completes at most one job, so
        # sorting by slot merges the two channels' completions.
        pchannel_tasks = np.array(
            [position[task.name] for task in predefined], dtype=np.int64
        )
        rcompleted_rows = arriving[rcompleted.row]
        completed = np.concatenate(
            (
                np.stack(
                    (pchannel_tasks[pcompleted.task], pcompleted.release, pcompleted.slot)
                ),
                np.stack(
                    (
                        columns.task[rcompleted_rows],
                        columns.release[rcompleted_rows],
                        rcompleted.slot,
                    )
                ),
            ),
            axis=1,
        )
        task_index, releases, slots = completed[:, np.argsort(completed[2], kind="stable")]
        due = releases + deadlines[task_index]
        # Jobs whose deadline lies beyond the horizon are censored (the
        # window ends before their verdict), matching the baseline
        # accounting.  The response-path delays of the others, drawn in
        # completion order, are added before the deadline comparison.
        counted = due <= horizon
        finish = (slots[counted] + 1) + self.response_delays(
            flits[task_index[counted]], load, rng, config
        )
        result.record_batch(
            tasks,
            task_index[counted],
            finish > due[counted],
            finish - releases[counted],
            collect=config.collect_responses,
        )

        # Jobs still queued at the horizon with an expired deadline have
        # certainly missed it.
        for pool in rchannel.pools.values():
            for job in pool.queue.jobs():
                if job.release + job.task.deadline <= horizon:
                    result.record(job.task.criticality, True)
                    result.unfinished += 1
        return result

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

The trial does Python work once per job or per scheduling run, not per
slot.  The P-channel computes its completions per task
(:meth:`PChannel.run_until`): a task's table slots, tiled over the
horizon, cut into ``wcet``-slot jobs.  The R-channel advances by runs: a
G-Sched decision holds until the granted job completes, its budget runs
out, a job arrives or a server period ends, so one ``execute_slot`` call
covers all of those free slots; with no staged work it jumps to the next
arrival and counts the skipped free slots as G-Sched idle slots.  The two
completion streams are merged by slot, and the path delays are drawn in
two array passes (requests in release order, responses in completion
order), so every result, counter and random draw equals stepping each
slot in turn.

Server dimensioning per trial is ``proportional`` by default (fast,
utilization-proportional budgets validated to fit the free bandwidth);
``analytic`` dimensioning via Theorems 2+4 is available for the
schedulability experiments.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.servers import design_servers
from repro.baselines.base import (
    IOVirtSystem,
    ReleasedJob,
    TrialConfig,
    TrialResult,
    WorkloadInstance,
)
from repro.core.gsched import ServerSpec
from repro.core.pchannel import PChannel
from repro.core.rchannel import RChannel
from repro.core.timeslot import (
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

#: Completions whose response delays are drawn in one sampler call.
RESPONSE_BATCH = 2048


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

        The greedy spread packer can fail at very high pre-load
        utilization; demoting the largest-period pre-defined task back to
        the R-channel and retrying converges because each demotion
        strictly reduces P-channel demand.
        """
        split = taskset.split_predefined(self.preload_fraction)
        while True:
            predefined = stagger_offsets(split.predefined())
            try:
                table = build_pchannel_table(
                    predefined, placement=self.placement
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
        runtime = split.runtime()
        servers = self._dimension_servers(table, runtime)

        pchannel = PChannel(split.predefined(), table=table)
        rchannel = RChannel(servers, pool_capacity=max(64, len(runtime) * 4))

        predefined_names = {task.name for task in split.predefined()}
        load = min(0.95, workload.target_utilization * self.noc_load_factor)

        arrivals = self._arrivals(
            [job for job in workload.releases if job.task.name not in predefined_names],
            load, rng, config,
        )
        horizon = config.horizon_slots
        # Merge the two channels' completions by slot (a slot belongs to
        # one channel and completes at most one job).  Jobs whose
        # deadline lies beyond the horizon are censored (the window ends
        # before their verdict), matching the baseline accounting.
        completed = [
            pair
            for pair in heapq.merge(
                pchannel.run_until(horizon),
                self._run_rchannel(rchannel, table, horizon, arrivals),
                key=lambda pair: pair[1],
            )
            if pair[0].release + pair[0].task.deadline <= horizon
        ]
        # Response-path delays, drawn in completion order, are added
        # before the deadline comparison; drawn a batch at a time to
        # bound the sampler's arrays.
        collect = config.collect_responses
        for start in range(0, len(completed), RESPONSE_BATCH):
            batch = completed[start : start + RESPONSE_BATCH]
            responses = self.response_delays(
                [job for job, _slot in batch], load, rng, config
            ).tolist()
            for (job, slot), response in zip(batch, responses):
                deadline = job.release + job.task.deadline
                finish = (slot + 1) + response
                missed = finish > deadline
                result.record(job.task.criticality, missed)
                result.bytes_transferred += job.task.payload_bytes
                elapsed = finish - job.release
                result.response_slots_sum += elapsed
                result.response_slots_max = max(result.response_slots_max, elapsed)
                if collect and job.task.criticality.counts_for_success:
                    result.record_response_sample(job.task.name, elapsed)

        # Jobs still queued at the horizon with an expired deadline have
        # certainly missed it.
        for pool in rchannel.pools.values():
            for job in pool.queue.jobs():
                if job.release + job.task.deadline <= horizon:
                    result.record(job.task.criticality, True)
                    result.unfinished += 1
        return result

    def _arrivals(
        self,
        released: List[ReleasedJob],
        load: float,
        rng: RandomSource,
        config: TrialConfig,
    ) -> List[Tuple[int, ReleasedJob]]:
        """``(arrival slot, job)`` of the run-time jobs in arrival order:
        release + driver/NoC delay, drawn in release order."""
        release_slots = np.fromiter(
            (job.release_slot for job in released), dtype=np.float64, count=len(released)
        )
        arrival_slots = np.ceil(
            release_slots + self.request_delays(released, load, rng, config)
        ).astype(np.int64)
        order = np.argsort(arrival_slots, kind="stable")
        return list(
            zip(arrival_slots[order].tolist(), [released[i] for i in order.tolist()])
        )

    @staticmethod
    def _run_rchannel(
        rchannel: RChannel,
        table: TimeSlotTable,
        horizon: int,
        arrivals: List[Tuple[int, ReleasedJob]],
    ) -> List[Tuple[Job, int]]:
        """Execute the free slots below ``horizon``; its completions.

        Free slots are addressed by ordinal (``k``-th free slot of
        sigma).  Every arrival at or before a slot is submitted before
        the slot runs.  Until the next arrival or G-Sched period
        boundary nothing the G-Sched decision reads changes but the
        granted job's progress and budget, so one ``execute_slot`` call
        runs the decision over those free slots, up to the job's
        completion or the budget's end.  When no pool has staged work
        the R-channel idles until the next arrival, so those free slots
        are skipped and counted as idle in one step; G-Sched catches up
        on the period boundaries it skipped at the next tick.  Every
        counter ends where stepping each slot would have left it.
        """
        completed: List[Tuple[Job, int]] = []
        cursor = 0

        def submit_through(slot: int) -> int:
            """Submit arrivals ``<= slot``; the next arrival, capped at
            the horizon."""
            nonlocal cursor
            while cursor < len(arrivals) and arrivals[cursor][0] <= slot:
                _arrival, released = arrivals[cursor]
                job = released.task.job(
                    release=released.release_slot, index=released.index
                )
                job.remaining = released.actual_slots
                rchannel.submit(job)
                cursor += 1
            if cursor < len(arrivals):
                return min(arrivals[cursor][0], horizon)
            return horizon

        free = table.free_indices()
        length = table.length

        def first_free(slot: int) -> int:
            """Ordinal of the first free slot at or after ``slot``: the
            number of free slots in ``[0, slot)``."""
            cycle, offset = divmod(slot, length)
            return cycle * len(free) + bisect_left(free, offset)

        gsched = rchannel.gsched
        next_arrival = submit_through(-1)
        ordinal, end = 0, first_free(horizon)
        while ordinal < end:
            cycle, index = divmod(ordinal, len(free))
            slot = cycle * length + free[index]
            if slot >= next_arrival:
                next_arrival = submit_through(slot)
            rchannel.tick(slot)
            stop = first_free(min(next_arrival, gsched.next_boundary))
            job = rchannel.execute_slot(
                slot, run=_FreeSlots(free, length, ordinal + 1, stop)
            )
            allocation = rchannel.last_allocation
            if allocation is None:
                # No pool had staged work: every free slot before the
                # next arrival idles too.
                resume = first_free(next_arrival)
                gsched.idle_slots += resume - ordinal - 1
                ordinal = resume
                continue
            ordinal += allocation.slots
            if job is not None:
                cycle, index = divmod(ordinal - 1, len(free))
                completed.append((job, cycle * length + free[index]))
        # Arrivals after the last executed free slot still reach their
        # pools before the horizon.
        submit_through(horizon - 1)
        return completed


class _FreeSlots(Sequence[int]):
    """The free slots of sigma with ordinals in ``[start, stop)``, in
    order; the ``k``-th free slot lies in hyper-period ``k // F`` at the
    ``k % F``-th free offset."""

    __slots__ = ("free", "length", "start", "stop")

    def __init__(self, free: List[int], length: int, start: int, stop: int):
        self.free = free
        self.length = length
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.stop - self.start:
            raise IndexError(index)
        cycle, offset = divmod(self.start + index, len(self.free))
        return cycle * self.length + self.free[offset]

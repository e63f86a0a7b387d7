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

The trial loop does work only where state can change.  The P-channel
walks the occupied table offsets, tiled over the horizon.  The
R-channel walks the free slots.  When no pool has staged work it jumps
to the next arrival and counts the skipped free slots as G-Sched idle
slots.  The two completion streams are merged by slot, so every result,
counter and random draw equals stepping each slot in turn.

Server dimensioning per trial is ``proportional`` by default (fast,
utilization-proportional budgets validated to fit the free bandwidth);
``analytic`` dimensioning via Theorems 2+4 is available for the
schedulability experiments.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.analysis.servers import design_servers
from repro.baselines.base import (
    IOVirtSystem,
    ReleasedJob,
    TrialResult,
    WorkloadInstance,
    cycles_to_slots,
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
from repro.noc.packet import FLIT_BYTES
from repro.sim.rng import RandomSource
from repro.tasks.task import Job, TaskKind
from repro.tasks.taskset import TaskSet
from repro.virt.stack import stack_for

#: Default server period for proportional dimensioning (1 ms at the
#: case-study 10 us slot).
PROPORTIONAL_PERIOD = 100

#: Budget head-room multiplier over the VM's raw utilization.
PROPORTIONAL_MARGIN = 1.25


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
        self.preload_fraction = preload_fraction
        self.server_policy = server_policy
        self.placement = placement
        self.noc = noc_model or NocLatencyModel()
        self.stack = stack_for(self.stack_name)
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

        # Pre-compute run-time job arrivals (release + driver/NoC delay).
        arrivals: List[Tuple[int, ReleasedJob]] = []
        for released in workload.releases:
            if released.task.name in predefined_names:
                continue
            delay = self._request_delay_slots(released, load, rng, workload)
            arrivals.append(
                (int(math.ceil(released.release_slot + delay)), released)
            )
        arrivals.sort(key=lambda pair: pair[0])

        horizon = config.horizon_slots
        # Merge the two channels' completions by slot (a slot belongs to
        # one channel and completes at most one job), so the response
        # delays below are drawn in slot order.
        completed = heapq.merge(
            self._run_pchannel(pchannel, table, horizon),
            self._run_rchannel(rchannel, table, horizon, arrivals),
            key=lambda pair: pair[1],
        )

        # Account completions: response-path delay added before the
        # deadline comparison.  Jobs whose deadline lies beyond the
        # horizon are censored (the window ends before their verdict),
        # matching the baseline accounting.
        for job, slot in completed:
            deadline = job.release + job.task.deadline
            if deadline > horizon:
                continue
            response = self._response_delay_slots(job, load, rng, workload)
            finish = (slot + 1) + response
            missed = finish > deadline
            result.record(job.task.criticality, missed)
            result.bytes_transferred += job.task.payload_bytes
            elapsed = finish - job.release
            result.response_slots_sum += elapsed
            result.response_slots_max = max(result.response_slots_max, elapsed)
            if (
                workload.config.collect_responses
                and job.task.criticality.counts_for_success
            ):
                result.record_response_sample(job.task.name, elapsed)

        # Jobs still queued at the horizon with an expired deadline have
        # certainly missed it.
        for pool in rchannel.pools.values():
            for job in pool.queue.jobs():
                if job.release + job.task.deadline <= horizon:
                    result.record(job.task.criticality, True)
                    result.unfinished += 1
        return result

    @staticmethod
    def _run_pchannel(
        pchannel: PChannel, table: TimeSlotTable, horizon: int
    ) -> List[Tuple[Job, int]]:
        """Execute every table slot below ``horizon``; its completions.

        P-channel state depends on its own slots only, so the occupied
        offsets of sigma* are walked, tiled over the horizon.
        """
        completed: List[Tuple[Job, int]] = []
        occupied = table.occupied_indices()
        if not occupied:
            return completed
        for base in range(0, horizon, table.length):
            for offset in occupied:
                slot = base + offset
                if slot >= horizon:
                    break
                job = pchannel.execute_slot(slot)
                if job is not None:
                    completed.append((job, slot))
        return completed

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
        the slot runs.  When no pool has staged work the R-channel idles
        until the next arrival, so those free slots are skipped and
        counted as idle in one step; G-Sched catches up on the period
        boundaries it skipped at the next tick.  Every counter ends
        where stepping each slot would have left it.
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

        next_arrival = submit_through(-1)
        ordinal, end = 0, first_free(horizon)
        while ordinal < end:
            cycle, index = divmod(ordinal, len(free))
            slot = cycle * length + free[index]
            if slot >= next_arrival:
                next_arrival = submit_through(slot)
            rchannel.tick(slot)
            job = rchannel.execute_slot(slot)
            ordinal += 1
            if job is not None:
                completed.append((job, slot))
            elif rchannel.last_allocation is None:
                # No pool had staged work: every free slot before the
                # next arrival idles too.
                resume = first_free(next_arrival)
                rchannel.gsched.idle_slots += resume - ordinal
                ordinal = resume
        # Arrivals after the last executed free slot still reach their
        # pools before the horizon.
        submit_through(horizon - 1)
        return completed

    # -- delay hooks ---------------------------------------------------------------------

    def _request_delay_slots(
        self,
        released: ReleasedJob,
        load: float,
        rng: RandomSource,
        workload: WorkloadInstance,
    ) -> float:
        software = self.stack.request_delay(load, rng)
        flits = 1 + (released.task.payload_bytes + FLIT_BYTES - 1) // FLIT_BYTES
        noc = self.noc.sample(self.request_hops, flits, load, rng)
        return cycles_to_slots(software + noc, workload.config)

    def _response_delay_slots(
        self,
        job: Job,
        load: float,
        rng: RandomSource,
        workload: WorkloadInstance,
    ) -> float:
        software = self.stack.response_delay(load, rng)
        flits = 1 + (job.task.payload_bytes + FLIT_BYTES - 1) // FLIT_BYTES
        noc = self.noc.sample(self.response_hops, flits, load, rng)
        return cycles_to_slots(software + noc, workload.config)

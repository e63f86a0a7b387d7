"""R-channel: run-time I/O task scheduling and execution (Sec. III-A).

"The design of the R-channel contains a group of I/O pools, a two-layer
scheduler ... and an executor."  The executor comes in two styles:

* :meth:`RChannel.execute_slot` runs one *free* slot (as designated by
  the time slot table): the G-Sched picks a VM, the chosen pool's staged
  operation runs for one slot, and a completed job is removed from its
  priority queue.  The manager, the hypervisor, the isolation
  experiments, schedule traces, containment guards and tracing all drive
  the channel this way.
* :meth:`RChannel.run_until` is the batch executor used by the Fig. 7
  trial, the counterpart of
  :meth:`~repro.core.pchannel.PChannel.run_until`: given the table and
  every arrival up front as :class:`RChannelArrivals` columns, it runs
  all free slots below a horizon with one pass per scheduling run, over
  per-VM heaps of rows in L-Sched order (EDF or FIFO) and the G-Sched's
  own server states, and returns :class:`RChannelCompletions` columns.
  Only the jobs still buffered at the horizon become
  :class:`~repro.tasks.task.Job` objects; the channel ends where
  stepping :meth:`~RChannel.execute_slot` on each free slot would.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.core.gsched import Allocation, GlobalScheduler, ServerSpec
from repro.core.iopool import IOPool
from repro.core.lsched import SelectionPolicy, edf_policy, fifo_policy
from repro.core.timeslot import TimeSlotTable
from repro.sim.trace import TraceRecorder
from repro.tasks.task import Job


class RChannelArrivals(NamedTuple):
    """Run-time jobs as int64 columns, in arrival order: row ``i``
    arrives at slot ``slot[i]`` for the pool of VM ``vm[i]``, released
    at ``release[i]`` and due at absolute deadline ``deadline[i]``, with
    ``work[i]`` slots to run."""

    slot: np.ndarray
    vm: np.ndarray
    release: np.ndarray
    deadline: np.ndarray
    work: np.ndarray


class RChannelCompletions(NamedTuple):
    """Completed run-time jobs as int64 columns, in slot order: arrival
    row ``row[i]`` first ran in slot ``first[i]``, completed in slot
    ``slot[i]`` and was preempted ``preemptions[i]`` times."""

    row: np.ndarray
    slot: np.ndarray
    first: np.ndarray
    preemptions: np.ndarray


class RChannel:
    """I/O pools + two-layer scheduler + executor."""

    def __init__(
        self,
        servers: List[ServerSpec],
        pool_capacity: int = 64,
        policy: SelectionPolicy = edf_policy,
        on_complete: Optional[Callable[[Job, int], None]] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.trace = trace
        self.pools: Dict[int, IOPool] = {
            spec.vm_id: IOPool(
                vm_id=spec.vm_id, capacity=pool_capacity, policy=policy,
                trace=trace,
            )
            for spec in servers
        }
        self.gsched = GlobalScheduler(servers, trace=trace)
        self.on_complete = on_complete
        self.slots_executed = 0
        self.jobs_completed = 0
        self.completed_jobs: List[Job] = []
        self.last_allocation: Optional[Allocation] = None
        #: VMs removed from scheduling by the degradation policy; their
        #: pools stop presenting work and their submissions bounce.
        self.quarantined_vms: Set[int] = set()
        self.quarantine_rejects = 0
        #: Slots granted to a VM whose staged job could not run (device
        #: timeout burned the slot without progress).
        self.blocked_slots = 0

    # -- VM-side interface -----------------------------------------------------

    def submit(self, job: Job, slot: int = 0) -> bool:
        """Route a run-time job to its VM's pool (hardware-partitioned)."""
        pool = self.pools.get(job.task.vm_id)
        if pool is None:
            raise KeyError(
                f"no I/O pool for VM {job.task.vm_id}; configured VMs: "
                f"{sorted(self.pools)}"
            )
        if job.task.vm_id in self.quarantined_vms:
            self.quarantine_rejects += 1
            return False
        return pool.submit(job, slot=slot)

    # -- containment -----------------------------------------------------------

    def quarantine_vm(self, vm_id: int, slot: int = 0) -> List[Job]:
        """Mask a VM out of scheduling and drain its pool.

        Graceful degradation for a babbling-idiot VM: its buffered jobs
        are discarded (returned for accounting), further submissions are
        rejected, and the G-Sched stops seeing the pool -- the idiot can
        no longer consume even background slots.  Idempotent.
        """
        pool = self.pools.get(vm_id)
        if pool is None:
            raise KeyError(f"no I/O pool for VM {vm_id}")
        if vm_id in self.quarantined_vms:
            return []
        self.quarantined_vms.add(vm_id)
        return pool.drain(slot=slot)

    def release_vm(self, vm_id: int) -> None:
        """Lift a VM quarantine (operator action / fault cleared)."""
        self.quarantined_vms.discard(vm_id)

    # -- executor ---------------------------------------------------------------

    def tick(self, slot: int) -> None:
        """Advance server budgets to ``slot`` (every slot, free or not)."""
        self.gsched.tick(slot)

    def execute_slot(
        self,
        slot: int,
        guard: Optional[Callable[[Job, int], bool]] = None,
    ) -> Optional[Job]:
        """Run one free slot of R-channel work; returns a completed job.

        Returns None when the slot idles or the staged job needs more
        slots.  ``guard`` is the containment hook: called with the
        allocated staged job, a False return means the job's device
        timed out this slot -- the slot is *burned* (budget already
        consumed, no progress made) and counted in
        :attr:`blocked_slots`.  The burn is charged to the faulting
        VM's own allocation, never to another VM's budget.
        """
        pending: Dict[int, int] = {}
        for vm_id, pool in self.pools.items():
            deadline = pool.staged_deadline()
            if deadline is not None and vm_id not in self.quarantined_vms:
                pending[vm_id] = deadline
        allocation = self.gsched.allocate(slot, pending)
        self.last_allocation = allocation
        if allocation is None:
            return None
        pool = self.pools[allocation.vm_id]
        job = pool.shadow
        if guard is not None and job is not None and not guard(job, slot):
            self.blocked_slots += 1
            if self.trace is not None:
                self.trace.record(
                    slot, "rchannel.burn", "rchannel",
                    vm=allocation.vm_id, job=job.name,
                    budgeted=allocation.budgeted,
                )
            return None
        if job is not None and job.started_at is None:
            job.started_at = float(slot)
        if self.trace is not None and job is not None:
            self.trace.record(
                slot, "rchannel.dispatch", "rchannel",
                vm=allocation.vm_id, job=job.name,
                remaining=job.remaining, budgeted=allocation.budgeted,
            )
        completed = pool.execute_slot(slot)
        self.slots_executed += 1
        if completed is not None:
            completed.completed_at = float(slot + 1)
            self.jobs_completed += 1
            self.completed_jobs.append(completed)
            if self.on_complete is not None:
                self.on_complete(completed, slot)
        return completed

    def run_until(
        self,
        horizon: int,
        arrivals: RChannelArrivals,
        table: TimeSlotTable,
        make_job: Callable[[int], Job],
    ) -> RChannelCompletions:
        """Execute every free slot of ``table`` below ``horizon``; the
        completions as columns, in slot order.

        ``arrivals`` are the jobs as columns, in time order.  A job is
        submitted before the first free slot at or after its arrival
        slot runs; one arriving after the last free slot below
        ``horizon`` is still submitted, one arriving at ``horizon`` or
        later is not.  A completed job is a row of the returned
        :class:`RChannelCompletions`, not a :class:`Job`: it is not
        appended to :attr:`completed_jobs`.  Only a job still buffered
        at the horizon becomes a :class:`Job`, ``make_job(row)``, with
        its remaining work, start stamp and preemption count set.

        The loop makes one pass per scheduling run.  A run holds one
        G-Sched decision -- budgeted EDF on ``(server deadline, staged
        deadline, vm_id)``, else background EDF on ``(staged deadline,
        vm_id)`` -- until the granted job completes, its budget runs
        out, a job arrives or a server period ends.  A stretch with no
        staged work is skipped without a decision.  Each VM's pool is a
        heap of rows in its L-Sched policy's order: ``(absolute
        deadline, row)`` under :func:`edf_policy`, ``(release, absolute
        deadline, row)`` under :func:`fifo_policy`.  Rows are inserted
        in row order, so ties break in insertion order as in
        :class:`PriorityQueue`, and the G-Sched sees the head row's
        absolute deadline either way; budgets are the G-Sched's own
        server states, replenished through :meth:`GlobalScheduler.tick`.

        The channel ends exactly where calling :meth:`tick` and
        :meth:`execute_slot` on each free slot in turn would: G-Sched
        budgets, deadlines and counters, channel and pool counters,
        L-Sched and job preemption counts, job start and completion
        slots, and unfinished jobs buffered in their pool queues with
        the shadow registers refreshed.  ``LocalScheduler.selection_count``
        is the exception: it counts one selection per leftover job.
        Needs a fresh channel, no trace recorder and no ``on_complete``
        hook (per-slot events and per-job callbacks come from
        :meth:`execute_slot` only), no quarantined VM, and the EDF or
        FIFO L-Sched policy in every pool.
        """
        gsched = self.gsched
        if self.trace is not None:
            raise ValueError("run_until records no trace events; step execute_slot")
        if self.on_complete is not None:
            raise ValueError("run_until calls no on_complete hook; step execute_slot")
        if self.quarantined_vms:
            raise ValueError(
                f"run_until needs no quarantined VM; quarantined: "
                f"{sorted(self.quarantined_vms)}"
            )
        if any(
            pool.lsched.policy is not edf_policy and pool.lsched.policy is not fifo_policy
            for pool in self.pools.values()
        ):
            raise ValueError(
                "run_until schedules pools by EDF or FIFO; step execute_slot"
            )
        if (
            self.quarantine_rejects
            or gsched.next_boundary != -math.inf
            or gsched.idle_slots + gsched.budgeted_grants + gsched.background_grants
            or any(pool.submitted or pool.rejected for pool in self.pools.values())
        ):
            raise ValueError(
                "run_until needs a channel that has run no slot and buffered no job"
            )

        # Free slots are addressed by ordinal: the k-th free slot of
        # sigma lies in hyper-period k // F at the (k % F)-th free offset.
        free = table.free_indices()
        count, length = len(free), table.length

        def first_free(slot: int) -> int:
            """Ordinal of the first free slot at or after ``slot``."""
            cycle, offset = divmod(slot, length)
            return cycle * count + bisect_left(free, offset)

        end = max(0, first_free(horizon))
        # Each arrival's submission point: the ordinal of the first free
        # slot at or after it; past ``end`` for arrivals at the horizon
        # or later, which are never submitted.
        arrival_slots = np.asarray(arrivals.slot, dtype=np.int64)
        cycles, offsets = np.divmod(arrival_slots, length)
        submit_at = cycles * count + np.searchsorted(
            np.asarray(free, dtype=np.int64), offsets
        )
        submit_at[arrival_slots >= horizon] = end + 1
        ordinals: List[int] = submit_at.tolist()
        vms: List[int] = arrivals.vm.tolist()
        releases: List[int] = arrivals.release.tolist()
        deadlines: List[int] = arrivals.deadline.tolist()
        # Per row: work left, ordinal of the first free slot it ran in
        # (-1 before it runs) and preemption count.  Ordinals become
        # slots in one array pass at the end.
        remaining: List[int] = arrivals.work.tolist()
        total = len(remaining)
        started = [-1] * total
        preempted = [0] * total

        # Per VM: [vm_id, heap of rows whose entries end in (absolute
        # deadline, row), server state, pool, peak occupancy, EDF?].
        lanes: List[List[Any]] = []
        lane_of: Dict[int, List[Any]] = {}
        for vm_id, pool in self.pools.items():
            lane_of[vm_id] = [
                vm_id, [], gsched._states[vm_id], pool, 0,
                pool.lsched.policy is edf_policy,
            ]
            lanes.append(lane_of[vm_id])

        done_rows: List[int] = []
        done_ordinals: List[int] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        pending = ordinal = cursor = 0
        idle = budgeted = background = 0
        no_arrival = end + 1
        next_arrival = ordinals[0] if total else no_arrival
        # Ordinal of the first free slot at or after the next server
        # period boundary; -1 ticks the G-Sched at the first decision.
        boundary = -1
        last_vm: Optional[int] = None
        last_budgeted = False
        best: Optional[Tuple[int, int, int]]
        fallback: Optional[Tuple[int, int]]
        chosen: List[Any]
        chosen_fallback: List[Any]
        while True:
            if ordinal >= next_arrival:
                while cursor < total and ordinals[cursor] <= ordinal:
                    row = cursor
                    cursor += 1
                    target = lane_of.get(vms[row])
                    if target is None:
                        raise KeyError(
                            f"no I/O pool for VM {vms[row]}; configured "
                            f"VMs: {sorted(self.pools)}"
                        )
                    heap, pool = target[1], target[3]
                    if len(heap) >= pool.queue.capacity:
                        pool.rejected += 1
                        pool.reject_streak += 1
                        if pool.reject_streak > pool.max_reject_streak:
                            pool.max_reject_streak = pool.reject_streak
                        continue
                    pool.submitted += 1
                    pool.reject_streak = 0
                    entry = (
                        (deadlines[row], row)
                        if target[5]
                        else (releases[row], deadlines[row], row)
                    )
                    if heap and entry < heap[0]:
                        # The arrival becomes the new head over a
                        # buffered job: the L-Sched preempts it.
                        head = heap[0][-1]
                        if remaining[head] > 0:
                            pool.lsched.preemption_count += 1
                            preempted[head] += 1
                    heappush(heap, entry)
                    pending += 1
                    if len(heap) > target[4]:
                        target[4] = len(heap)
                next_arrival = ordinals[cursor] if cursor < total else no_arrival
            if ordinal >= end:
                break
            if not pending:
                # Nothing staged: every free slot before the next
                # arrival idles.
                resume = next_arrival if next_arrival < end else end
                idle += resume - ordinal
                ordinal = resume
                last_vm = None
                continue
            if ordinal >= boundary:
                cycle, index = divmod(ordinal, count)
                gsched.tick(cycle * length + free[index])
                boundary = first_free(int(gsched.next_boundary))
            best = fallback = None
            for lane in lanes:
                heap = lane[1]
                if not heap:
                    continue
                state = lane[2]
                if state.budget > 0:
                    key = (state.deadline, heap[0][-2], lane[0])
                    if best is None or key < best:
                        best, chosen = key, lane
                elif best is None:
                    background_key = (heap[0][-2], lane[0])
                    if fallback is None or background_key < fallback:
                        fallback, chosen_fallback = background_key, lane
            stop = next_arrival if next_arrival < boundary else boundary
            span = (stop if stop < end else end) - ordinal
            last_vm, heap, state, pool, _peak, _edf = (
                chosen if best is not None else chosen_fallback
            )
            row = heap[0][-1]
            # A job with nothing left still takes one slot, as in
            # execute_slot.
            left = remaining[row] if remaining[row] > 0 else 1
            run = span if span < left else left
            last_budgeted = best is not None
            if last_budgeted:
                if state.budget < run:
                    run = state.budget
                state.budget -= run
                state.slots_consumed += run
                budgeted += run
            else:
                background += run
            if started[row] < 0:
                started[row] = ordinal
            ordinal += run
            if run < left:
                remaining[row] = left - run
                continue
            remaining[row] = 0
            heappop(heap)
            pending -= 1
            pool.completed += 1
            done_rows.append(row)
            done_ordinals.append(ordinal - 1)

        if end:
            # Stepping ticks every free slot, the last one included.
            cycle, index = divmod(end - 1, count)
            gsched.tick(cycle * length + free[index])
            self.last_allocation = (
                None if last_vm is None else Allocation(last_vm, last_budgeted)
            )
        gsched.idle_slots += idle
        gsched.budgeted_grants += budgeted
        gsched.background_grants += background
        self.slots_executed += budgeted + background
        self.jobs_completed += len(done_rows)
        free_offsets = np.asarray(free, dtype=np.int64)

        def slots_of(ordinals: np.ndarray) -> np.ndarray:
            cycles, indices = np.divmod(ordinals, count)
            return cycles * length + free_offsets[indices]

        started_slots = np.array(started, dtype=np.int64)
        ran = started_slots >= 0
        started_slots[ran] = slots_of(started_slots[ran])
        for _vm_id, heap, _state, pool, peak, _edf in lanes:
            queue = pool.queue
            queue.total_inserted += pool.submitted - len(heap)
            queue.total_removed += pool.completed
            # Re-inserted in arrival order, as stepping inserted them.
            for row in sorted(entry[-1] for entry in heap):
                job = make_job(row)
                job.remaining = remaining[row]
                if started[row] >= 0:
                    job.started_at = float(started_slots[row])
                job.preemption_count = preempted[row]
                queue.insert(job)
            queue.peak_occupancy = max(queue.peak_occupancy, peak)
            pool.refresh()
        rows = np.array(done_rows, dtype=np.int64)
        return RChannelCompletions(
            rows,
            slots_of(np.array(done_ordinals, dtype=np.int64)),
            started_slots[rows],
            np.array(preempted, dtype=np.int64)[rows],
        )

    @property
    def pending_jobs(self) -> int:
        return sum(len(pool) for pool in self.pools.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RChannel(pools={len(self.pools)}, pending={self.pending_jobs}, "
            f"completed={self.jobs_completed})"
        )

"""R-channel: run-time I/O task scheduling and execution (Sec. III-A).

"The design of the R-channel contains a group of I/O pools, a two-layer
scheduler ... and an executor."  The executor here is the slot-level
engine: every *free* slot (as designated by the time slot table) the
G-Sched picks a VM, the chosen pool's staged operation runs for one slot,
and completed jobs are removed from their priority queue.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.gsched import Allocation, GlobalScheduler, ServerSpec
from repro.core.iopool import IOPool
from repro.core.lsched import SelectionPolicy, edf_policy
from repro.sim.trace import TraceRecorder
from repro.tasks.task import Job


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
        run: Sequence[int] = (),
    ) -> Optional[Job]:
        """Run one free slot of R-channel work; returns a completed job.

        Returns None when the slot idles or the staged job needs more
        slots.  ``guard`` is the containment hook: called with the
        allocated staged job, a False return means the job's device
        timed out this slot -- the slot is *burned* (budget already
        consumed, no progress made) and counted in
        :attr:`blocked_slots`.  The burn is charged to the faulting
        VM's own allocation, never to another VM's budget.

        ``run`` lists further free slots after ``slot``, in order, that
        the same G-Sched decision may cover: the caller guarantees that
        no job arrives and no server crosses a period boundary before
        the last of them.  The run ends at the staged job's completion,
        when a budgeted grant exhausts the budget, or at the end of
        ``run``; :attr:`last_allocation` ``.slots`` is its length and a
        completion is stamped at its last slot.  A guard or a trace
        recorder limits the run to ``slot`` itself: both act slot by
        slot.
        """
        limit = 1 + len(run) if guard is None and self.trace is None else 1
        pending: Dict[int, int] = {}
        run_slots: Optional[Dict[int, int]] = {} if limit > 1 else None
        for vm_id, pool in self.pools.items():
            deadline = pool.staged_deadline()
            if deadline is None or vm_id in self.quarantined_vms:
                continue
            pending[vm_id] = deadline
            if run_slots is not None and pool.shadow is not None:
                run_slots[vm_id] = min(limit, pool.shadow.remaining)
        allocation = self.gsched.allocate(slot, pending, run_slots)
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
        last = slot if allocation.slots == 1 else run[allocation.slots - 2]
        completed = pool.execute_slot(last, slots=allocation.slots)
        self.slots_executed += allocation.slots
        if completed is not None:
            completed.completed_at = float(last + 1)
            self.jobs_completed += 1
            self.completed_jobs.append(completed)
            if self.on_complete is not None:
                self.on_complete(completed, last)
        return completed

    @property
    def pending_jobs(self) -> int:
        return sum(len(pool) for pool in self.pools.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RChannel(pools={len(self.pools)}, pending={self.pending_jobs}, "
            f"completed={self.jobs_completed})"
        )

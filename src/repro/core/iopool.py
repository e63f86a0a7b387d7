"""I/O pool: per-VM buffering and local scheduling (Sec. III-A).

"An I/O pool is associated with a VM, which buffers and schedules the
run-time I/O tasks generated by the VM. ... contains a priority queue, a
control logic, a shadow register, and an L-Sched."  Partitioning pools
per VM gives inter-VM isolation at the hardware I/O level (footnote 1);
the pool for VM A physically cannot buffer or starve VM B's requests.

With an attached :class:`~repro.sim.trace.TraceRecorder` the pool emits
``iopool.enqueue`` / ``iopool.reject`` / ``iopool.drop`` events and the
L-Sched's ``lsched.stage`` / ``lsched.preempt`` decisions, all keyed by
the integer slot the caller passes down.  Without a recorder every
instrumentation point is a single ``is None`` test -- disabled runs stay
byte-identical to uninstrumented ones.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.lsched import LocalScheduler, SelectionPolicy, edf_policy
from repro.core.priority_queue import PriorityQueue, QueueFullError
from repro.sim.trace import TraceRecorder
from repro.tasks.task import Job


class IOPool:
    """Priority queue + control logic + shadow register + L-Sched."""

    def __init__(
        self,
        vm_id: int,
        capacity: int = 64,
        policy: SelectionPolicy = edf_policy,
        name: str = "",
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.vm_id = vm_id
        self.name = name or f"iopool.vm{vm_id}"
        self.trace = trace
        self.queue = PriorityQueue(capacity=capacity, name=f"{self.name}.pq")
        self.lsched = LocalScheduler(
            self.queue, policy=policy, name=f"{self.name}.lsched"
        )
        #: The shadow register: the first operation of the job the
        #: L-Sched selected, visible to the G-Sched.
        self.shadow: Optional[Job] = None
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        #: Jobs discarded by containment (drain/quarantine), not executed.
        self.dropped = 0
        #: Consecutive rejections since the last accepted submission --
        #: the back-pressure signal the degradation policy watches (a
        #: long streak means the issuing VM ignores QueueFullError).
        self.reject_streak = 0
        self.max_reject_streak = 0

    # -- VM-side interface ---------------------------------------------------

    def submit(self, job: Job, slot: int = 0) -> bool:
        """Buffer a run-time I/O job from the owning VM.

        Returns False (and counts a rejection) when the hardware queue is
        full -- back-pressure the issuing driver observes.  ``slot``
        stamps the trace events; callers without a slot context may rely
        on the default.
        """
        if job.task.vm_id != self.vm_id:
            raise ValueError(
                f"job {job.name} from VM {job.task.vm_id} submitted to pool "
                f"of VM {self.vm_id}; pools are per-VM partitioned"
            )
        try:
            self.queue.insert(job)
        except QueueFullError:
            self.rejected += 1
            self.reject_streak += 1
            self.max_reject_streak = max(self.max_reject_streak, self.reject_streak)
            if self.trace is not None:
                self.trace.record(
                    slot, "iopool.reject", self.name,
                    vm=self.vm_id, job=job.name, occupancy=len(self.queue),
                )
            return False
        self.submitted += 1
        self.reject_streak = 0
        if self.trace is not None:
            self.trace.record(
                slot, "iopool.enqueue", self.name,
                vm=self.vm_id, job=job.name, deadline=job.absolute_deadline,
            )
        self.refresh(slot)
        return True

    # -- control logic ---------------------------------------------------------

    def refresh(self, slot: int = 0) -> Optional[Job]:
        """Re-run the L-Sched and update the shadow register."""
        previous = self.shadow
        preemptions_before = self.lsched.preemption_count
        self.shadow = self.lsched.select()
        if self.trace is not None:
            if self.lsched.preemption_count > preemptions_before:
                self.trace.record(
                    slot, "lsched.preempt", self.lsched.name,
                    vm=self.vm_id,
                    job=self.shadow.name if self.shadow else None,
                    preempted=previous.name if previous else None,
                )
            if self.shadow is not None and self.shadow is not previous:
                self.trace.record(
                    slot, "lsched.stage", self.lsched.name,
                    vm=self.vm_id, job=self.shadow.name,
                    deadline=self.shadow.absolute_deadline,
                )
        return self.shadow

    def staged_deadline(self) -> Optional[int]:
        """Absolute deadline of the staged operation (G-Sched's view)."""
        if self.shadow is None:
            return None
        return self.shadow.absolute_deadline

    def execute_slot(self, slot: int = 0) -> Optional[Job]:
        """Run the staged job for one slot; returns it when it completes.

        The executor "runs the I/O operation selected by the G-Sched and
        removes it from the priority queue": on completion the job leaves
        the queue and the shadow register is refreshed.
        """
        job = self.shadow
        if job is None:
            return None
        job.execute(1)
        if job.remaining == 0:
            self.queue.remove(job)
            self.completed += 1
            self.refresh(slot)
            return job
        self.refresh(slot)
        return None

    # -- containment -----------------------------------------------------------

    def drain(self, slot: int = 0) -> List[Job]:
        """Discard every buffered job (VM quarantine); returns them.

        The shadow register is cleared -- a drained pool presents no
        pending work to the G-Sched.
        """
        drained = self.queue.jobs()
        for job in drained:
            self.queue.remove(job)
        self.dropped += len(drained)
        if self.trace is not None:
            for job in drained:
                self.trace.record(
                    slot, "iopool.drop", self.name,
                    vm=self.vm_id, job=job.name, reason="drain",
                )
        self.refresh(slot)
        return drained

    def drop_matching(
        self, predicate: Callable[[Job], bool], slot: int = 0
    ) -> List[Job]:
        """Discard buffered jobs satisfying ``predicate`` (e.g. jobs
        targeting a quarantined device); refreshes the shadow register
        so a dropped staged job cannot linger there.
        """
        dropped = [job for job in self.queue.jobs() if predicate(job)]
        for job in dropped:
            self.queue.remove(job)
        self.dropped += len(dropped)
        if self.trace is not None:
            for job in dropped:
                self.trace.record(
                    slot, "iopool.drop", self.name,
                    vm=self.vm_id, job=job.name, reason="predicate",
                )
        self.refresh(slot)
        return dropped

    @property
    def has_pending(self) -> bool:
        return self.shadow is not None

    def __len__(self) -> int:
        return len(self.queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IOPool(vm={self.vm_id}, queued={len(self.queue)}, "
            f"staged={self.shadow.name if self.shadow else None})"
        )

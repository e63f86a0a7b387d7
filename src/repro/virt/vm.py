"""Guest virtual machine container.

Binds a VM identity to its task set, its software stack model, and
run-time statistics.  The system models (``repro.baselines``) use the VM
as the unit of isolation accounting: per-VM deadline misses, releases
and rejections roll up here.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.tasks.task import Job
from repro.tasks.taskset import TaskSet
from repro.virt.stack import SoftwareStackModel, stack_for


class VirtualMachine:
    """One guest VM with its tasks and per-VM accounting."""

    def __init__(
        self,
        vm_id: int,
        tasks: TaskSet,
        stack: Optional[SoftwareStackModel] = None,
        system: str = "ioguard",
    ):
        self.vm_id = vm_id
        self.tasks = tasks
        self.stack = stack if stack is not None else stack_for(system)
        for task in tasks:
            if task.vm_id != vm_id:
                raise ValueError(
                    f"task {task.name!r} belongs to VM {task.vm_id}, "
                    f"not VM {vm_id}"
                )
        self.jobs_released = 0
        self.jobs_completed = 0
        self.jobs_missed = 0
        self.jobs_rejected = 0
        self.completed_jobs: List[Job] = []

    # -- accounting --------------------------------------------------------

    def record_release(self) -> None:
        self.jobs_released += 1

    def record_rejection(self) -> None:
        self.jobs_rejected += 1

    def record_completion(self, job: Job) -> None:
        if job.task.vm_id != self.vm_id:
            raise ValueError(
                f"job {job.name} of VM {job.task.vm_id} reported to VM "
                f"{self.vm_id}"
            )
        self.jobs_completed += 1
        self.completed_jobs.append(job)
        if job.met_deadline() is False:
            self.jobs_missed += 1

    @property
    def utilization(self) -> float:
        return self.tasks.utilization

    @property
    def miss_ratio(self) -> float:
        if self.jobs_completed == 0:
            return 0.0
        return self.jobs_missed / self.jobs_completed

    def stats(self) -> Dict[str, float]:
        return {
            "vm_id": self.vm_id,
            "released": self.jobs_released,
            "completed": self.jobs_completed,
            "missed": self.jobs_missed,
            "rejected": self.jobs_rejected,
            "utilization": self.utilization,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualMachine(vm={self.vm_id}, tasks={len(self.tasks)}, "
            f"stack={self.stack.name!r})"
        )

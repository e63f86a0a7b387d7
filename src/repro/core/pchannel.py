"""P-channel: pre-defined I/O task execution (Sec. III-A).

"The memory banks store the pre-defined I/O tasks and the corresponding
timing information ..., which are loaded during system initialization.
... During system execution, the executor synchronizes with a global
timer and then compares the synchronized results with the time slot
table.  Once the system executes at a starting time point of a pre-loaded
I/O task, the executor loads this task to the connected virtualization
driver for execution."

The executor comes in two styles:

* :meth:`PChannel.execute_slot` runs one occupied slot and returns the
  :class:`~repro.tasks.task.Job` it completes.  The manager, the
  hypervisor, schedule traces and tracing drive the channel this way.
* :meth:`PChannel.run_until` is the batch executor used by the Fig. 7
  trial.  A pre-defined task fires at its static sigma* slots, so its
  completions are a pure function of the table and the horizon: each
  task's table offsets, tiled over the horizon and cut into
  ``wcet``-slot jobs, give :class:`PChannelCompletions` columns (task,
  job index, release, first slot, completion slot) with no per-job
  object.  The channel's counters and in-flight jobs end where stepping
  would leave them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.timeslot import TimeSlotTable, build_pchannel_table
from repro.sim.trace import TraceRecorder
from repro.tasks.task import IOTask, Job, TaskKind
from repro.tasks.taskset import TaskSet


class PChannelCompletions(NamedTuple):
    """Completed pre-defined jobs as int64 columns, in slot order: row
    ``i`` is job ``index[i]`` of task ``tasks[task[i]]`` (its position
    in the channel's task set), released at ``release[i]``, first run in
    slot ``first[i]`` and completed in slot ``slot[i]``."""

    task: np.ndarray
    index: np.ndarray
    release: np.ndarray
    first: np.ndarray
    slot: np.ndarray


class PChannel:
    """Time-slot-table-driven executor for pre-defined tasks."""

    def __init__(
        self,
        predefined: TaskSet,
        table: Optional[TimeSlotTable] = None,
        on_complete: Optional[Callable[[Job, int], None]] = None,
        activation_slot: int = 0,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        for task in predefined:
            if task.kind != TaskKind.PREDEFINED:
                raise ValueError(
                    f"P-channel loaded with non-predefined task {task.name!r}"
                )
        if activation_slot < 0:
            raise ValueError(
                f"activation slot must be >= 0, got {activation_slot}"
            )
        self.tasks = predefined
        self.trace = trace
        #: sigma*: built at "system initialization" unless supplied.
        self.table = table if table is not None else build_pchannel_table(predefined)
        self.on_complete = on_complete
        #: First slot this channel is live: jobs released earlier are
        #: skipped (mode-change transients: a job whose window began
        #: before activation cannot receive its full slot allotment).
        self.activation_slot = activation_slot
        self._in_flight: Dict[str, Job] = {}
        self._job_counts: Dict[str, int] = {}
        self.slots_executed = 0
        self.jobs_completed = 0
        self.completed_jobs: List[Job] = []

    def occupies(self, slot: int) -> bool:
        """Whether the table reserves absolute slot ``slot``."""
        return self.table.is_occupied(slot)

    def execute_slot(self, slot: int) -> Optional[Job]:
        """Run the pre-defined work of slot ``slot``.

        Returns the job when this slot completes it.  Raises when called
        on a free slot -- the manager must route those to the R-channel.
        """
        task = self.table.task_at(slot)
        if task is None:
            raise ValueError(
                f"slot {slot} is free; P-channel executor has nothing to run"
            )
        job = self._current_job(task, slot)
        if job is None:
            # A table slot wrapped from the previous hyper-period repetition,
            # belonging to a job released before time zero; idle through it.
            return None
        if self.trace is not None:
            self.trace.record(
                slot, "pchannel.fire", "pchannel",
                task=task.name, job=job.name, remaining=job.remaining,
            )
        job.execute(1)
        if job.started_at is None:
            job.started_at = float(slot)
        self.slots_executed += 1
        if job.remaining == 0:
            job.completed_at = float(slot + 1)
            del self._in_flight[task.name]
            self.jobs_completed += 1
            self.completed_jobs.append(job)
            if self.on_complete is not None:
                self.on_complete(job, slot)
            return job
        return None

    def run_until(self, horizon: int) -> PChannelCompletions:
        """Execute every table slot below ``horizon``; the completions as
        columns, in slot order.

        Leaves :attr:`slots_executed`, :attr:`jobs_completed` and the
        per-task job counts and in-flight jobs exactly where calling
        :meth:`execute_slot` on each occupied slot in turn would, but
        works per task: the task's table offsets, tiled over the
        horizon, are its slots.  The leading slots :meth:`_current_job`
        idles through are dropped and the rest are cut into
        ``wcet``-slot jobs, each released at the period boundary
        containing its first slot; a cut-off last chunk stays in flight.
        A completed job is a row, not a :class:`Job`: it is not appended
        to :attr:`completed_jobs`.  Needs a fresh channel, no trace
        recorder and no ``on_complete`` hook (per-slot events and per-job
        callbacks come from :meth:`execute_slot` only).
        """
        if self.trace is not None:
            raise ValueError("run_until records no trace events; step execute_slot")
        if self.on_complete is not None:
            raise ValueError("run_until calls no on_complete hook; step execute_slot")
        if self._job_counts:
            raise ValueError("run_until needs a channel that has run no job yet")
        position = {task.name: index for index, task in enumerate(self.tasks)}
        tasks, table_slots, positions = self.table.owner_columns()
        # Group the table's slots by task name (same-named tasks share
        # one in-flight job, as in stepping): one sort orders them by
        # (name code, slot).
        codes: Dict[str, int] = {}
        code_of = np.array(
            [codes.setdefault(task.name, len(codes)) for task in tasks], dtype=np.int64
        )[positions]
        order = np.lexsort((table_slots, code_of))
        bounds = np.searchsorted(code_of[order], np.arange(len(codes) + 1)).tolist()
        grouped, owner_at = table_slots[order], positions[order]
        cycles = np.arange(0, max(horizon, 0), self.table.length)
        # Per task: the (task, index, release, first, slot) columns of its
        # completed jobs, after an empty row for a channel with none.
        empty = np.zeros(0, dtype=np.int64)
        columns: List[Tuple[np.ndarray, ...]] = [(empty,) * 5]
        # (first slot, task, job count) and (first slot, task, cut-off
        # job) per task, to insert the dict keys in stepping order.
        firsts: List[Tuple[int, str, int]] = []
        in_flight: List[Tuple[int, str, Job]] = []
        for name, code in codes.items():
            first, stop = bounds[code], bounds[code + 1]
            # The task at the group's first slot stands for the name.
            task = tasks[owner_at[first]]
            offsets = grouped[first:stop]
            # Idle until the first release at or after both the task
            # offset and the activation slot.
            start = task.offset
            if self.activation_slot > start:
                start += -(-(self.activation_slot - start) // task.period) * task.period
            slots = (cycles[:, np.newaxis] + offsets[np.newaxis, :]).ravel()
            slots = slots[(slots >= start) & (slots < horizon)]
            if not len(slots):
                continue
            wcet = task.wcet
            chunk_firsts = slots[::wcet]
            indices = (chunk_firsts - task.offset) // task.period
            releases = task.offset + indices * task.period
            full = len(slots) // wcet
            columns.append(
                (
                    np.full(full, position[name], dtype=np.int64),
                    indices[:full],
                    releases[:full],
                    chunk_firsts[:full],
                    slots[wcet - 1 :: wcet],
                )
            )
            if len(chunk_firsts) > full:
                job = task.job(release=int(releases[-1]), index=int(indices[-1]))
                job.remaining = wcet - (len(slots) - full * wcet)
                job.started_at = float(chunk_firsts[-1])
                in_flight.append((int(chunk_firsts[-1]), name, job))
            firsts.append((int(slots[0]), name, len(chunk_firsts)))
            self.slots_executed += len(slots)
        for _slot, name, count in sorted(firsts):
            self._job_counts[name] = count
        for _slot, name, job in sorted(in_flight, key=lambda entry: entry[0]):
            self._in_flight[name] = job
        merged = [np.concatenate(column) for column in zip(*columns)]
        # A slot completes at most one job: sorting by slot is stepping order.
        order = np.argsort(merged[-1], kind="stable")
        self.jobs_completed += len(order)
        return PChannelCompletions(*(column[order] for column in merged))

    def _current_job(self, task: IOTask, slot: int) -> Optional[Job]:
        """The in-flight job of ``task`` covering absolute slot ``slot``.

        A new job is materialised when none is in flight; its release is
        the period boundary containing ``slot`` (pre-defined jobs are
        strictly periodic: release ``offset + k*T``).  Returns None for
        slots before the task's first release -- table positions wrapped
        around the hyper-period boundary.
        """
        job = self._in_flight.get(task.name)
        if job is not None:
            return job
        if slot < task.offset:
            return None
        index = (slot - task.offset) // task.period
        if task.offset + index * task.period < self.activation_slot:
            # The window began before this channel was active; the job
            # cannot receive its full allotment -- skip it.
            return None
        job = task.job(release=task.offset + index * task.period, index=index)
        self._in_flight[task.name] = job
        self._job_counts[task.name] = self._job_counts.get(task.name, 0) + 1
        return job

    @property
    def utilization(self) -> float:
        """Fraction of table slots the P-channel occupies."""
        return 1.0 - self.table.free_fraction

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PChannel(tasks={len(self.tasks)}, H={self.table.total_slots}, "
            f"completed={self.jobs_completed})"
        )

"""Unit tests for the P-channel and R-channel."""

import pytest

from repro.core.gsched import ServerSpec
from repro.core.pchannel import PChannel
from repro.core.rchannel import RChannel
from repro.tasks.task import IOTask, TaskKind
from repro.tasks.taskset import TaskSet


def predefined_set():
    return TaskSet([
        IOTask(name="p0", period=10, wcet=2, kind=TaskKind.PREDEFINED),
        IOTask(name="p1", period=20, wcet=3, kind=TaskKind.PREDEFINED),
    ])


def runtime_job(name, release, deadline_rel, wcet=2, vm_id=0):
    task = IOTask(
        name=name, period=1000, wcet=wcet, deadline=deadline_rel, vm_id=vm_id
    )
    return task.job(release=release, index=0)


class TestPChannel:
    def test_rejects_runtime_tasks(self):
        tasks = TaskSet([IOTask(name="r", period=10, wcet=1)])
        with pytest.raises(ValueError, match="non-predefined"):
            PChannel(tasks)

    def test_occupies_follows_table(self):
        channel = PChannel(predefined_set())
        table = channel.table
        for slot in range(table.total_slots):
            assert channel.occupies(slot) == table.is_occupied(slot)

    def test_execute_free_slot_raises(self):
        channel = PChannel(predefined_set())
        free_slot = channel.table.free_indices()[0]
        with pytest.raises(ValueError, match="free"):
            channel.execute_slot(free_slot)

    def test_jobs_complete_within_deadlines(self):
        channel = PChannel(predefined_set())
        horizon = 3 * channel.table.total_slots
        for slot in range(horizon):
            if channel.occupies(slot):
                channel.execute_slot(slot)
        assert channel.jobs_completed > 0
        for job in channel.completed_jobs:
            assert job.met_deadline() is True

    def test_job_count_matches_periods(self):
        channel = PChannel(predefined_set())
        hyper = channel.table.total_slots  # 20
        for slot in range(hyper):
            if channel.occupies(slot):
                channel.execute_slot(slot)
        # p0 runs 2x per hyper-period, p1 runs 1x.
        names = [job.task.name for job in channel.completed_jobs]
        assert names.count("p0") == 2
        assert names.count("p1") == 1

    def test_completion_callback(self):
        seen = []
        channel = PChannel(
            predefined_set(), on_complete=lambda job, slot: seen.append(slot)
        )
        for slot in range(channel.table.total_slots):
            if channel.occupies(slot):
                channel.execute_slot(slot)
        assert len(seen) == channel.jobs_completed

    def test_utilization(self):
        channel = PChannel(predefined_set())
        assert channel.utilization == pytest.approx(2 / 10 + 3 / 20)


class TestRChannel:
    def make(self):
        return RChannel([ServerSpec(0, 10, 4), ServerSpec(1, 10, 4)])

    def test_submit_routes_by_vm(self):
        channel = self.make()
        channel.submit(runtime_job("a", 0, 100, vm_id=0))
        channel.submit(runtime_job("b", 0, 100, vm_id=1))
        assert len(channel.pools[0]) == 1
        assert len(channel.pools[1]) == 1

    def test_unknown_vm_rejected(self):
        channel = self.make()
        with pytest.raises(KeyError, match="no I/O pool"):
            channel.submit(runtime_job("a", 0, 100, vm_id=7))

    def test_slot_execution_completes_jobs(self):
        channel = self.make()
        job = runtime_job("a", 0, 100, wcet=2)
        channel.submit(job)
        channel.tick(0)
        assert channel.execute_slot(0) is None
        channel.tick(1)
        assert channel.execute_slot(1) is job
        assert channel.jobs_completed == 1

    def test_idle_slot(self):
        channel = self.make()
        channel.tick(0)
        assert channel.execute_slot(0) is None

    def test_edf_across_vms(self):
        """The tighter staged deadline wins the slot (EDF via G-Sched)."""
        channel = self.make()
        relaxed = runtime_job("relaxed", 0, 500, wcet=1, vm_id=0)
        urgent = runtime_job("urgent", 0, 50, wcet=1, vm_id=1)
        channel.submit(relaxed)
        channel.submit(urgent)
        channel.tick(0)
        completed = channel.execute_slot(0)
        assert completed is urgent

    def test_pending_jobs(self):
        channel = self.make()
        channel.submit(runtime_job("a", 0, 100, vm_id=0))
        channel.submit(runtime_job("b", 0, 100, vm_id=1))
        assert channel.pending_jobs == 2


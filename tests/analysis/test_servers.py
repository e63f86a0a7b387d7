"""Unit tests for server dimensioning."""

import pytest

from repro.analysis.lsched_test import lsched_schedulable
from repro.analysis.servers import (
    BudgetSearchStats,
    bandwidth_of,
    choose_period,
    design_servers,
    minimum_budget,
)
from repro.core.timeslot import TimeSlotTable
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet


def vm_tasks(*specs, name="vm"):
    return TaskSet(
        [
            IOTask(name=f"{name}.t{i}", period=T, wcet=C, deadline=D)
            for i, (T, C, D) in enumerate(specs)
        ],
        name=name,
    )


class TestMinimumBudget:
    def test_minimal_and_sufficient(self):
        tasks = vm_tasks((30, 4, 25), (50, 6, 50))
        theta = minimum_budget(10, tasks)
        assert theta is not None
        assert lsched_schedulable(10, theta, tasks).schedulable
        if theta > 1:
            assert not lsched_schedulable(10, theta - 1, tasks).schedulable

    def test_empty_taskset_gets_unit_budget(self):
        assert minimum_budget(10, TaskSet()) == 1

    def test_tight_deadline_needs_large_budget(self):
        # Deadline 4 under a period-10 server needs theta >= 9 to shrink
        # the blackout enough, far above the utilization floor of 1.
        tasks = vm_tasks((100, 1, 4))
        assert minimum_budget(10, tasks) == 9

    def test_overutilized_returns_none(self):
        tasks = vm_tasks((10, 9, 10), (10, 2, 10))
        assert minimum_budget(10, tasks) is None

    def test_invalid_pi(self):
        with pytest.raises(ValueError):
            minimum_budget(0, TaskSet())


class TestChoosePeriod:
    def test_min_deadline_policy(self):
        tasks = vm_tasks((40, 2, 30), (20, 1, 16))
        assert choose_period(tasks) == 8

    def test_period_at_least_one(self):
        assert choose_period(vm_tasks((40, 1, 1))) == 1

    def test_empty_tasks_use_uniform(self):
        assert choose_period(TaskSet()) == 50


class TestDesignServers:
    def test_feasible_design(self):
        table = TimeSlotTable.from_pattern([1, 0, 0, 0, 0] * 4)  # F/H = 0.8
        vms = {
            0: vm_tasks((40, 2, 40), (60, 3, 60), name="vm0"),
            1: vm_tasks((50, 4, 50), name="vm1"),
        }
        design = design_servers(table, vms)
        assert design.feasible
        assert set(design.servers) == {0, 1}
        for vm_id, (pi, theta) in design.servers.items():
            assert lsched_schedulable(pi, theta, vms[vm_id]).schedulable

    def test_infeasible_vm_reported(self):
        table = TimeSlotTable.empty(10)
        vms = {0: vm_tasks((10, 9, 10), (10, 3, 10), name="vm0")}
        design = design_servers(table, vms)
        assert not design.feasible
        assert 0 in design.failures

    def test_global_overload_reported(self):
        # Table with tiny free bandwidth cannot host both servers.
        table = TimeSlotTable.from_pattern([1, 1, 1, 0] * 5)  # F/H = 0.25
        vms = {
            0: vm_tasks((20, 4, 20), name="vm0"),
            1: vm_tasks((20, 4, 20), name="vm1"),
        }
        design = design_servers(table, vms)
        assert not design.feasible

    def test_pinned_period_used(self):
        table = TimeSlotTable.empty(10)
        vms = {
            0: vm_tasks((40, 2, 30), name="vm0"),
            1: vm_tasks((40, 2, 30), name="vm1"),
        }
        stats = BudgetSearchStats()
        design = design_servers(table, vms, periods={1: 10}, stats=stats)
        assert design.feasible
        assert design.servers[0][0] == 15
        assert design.servers[1][0] == 10
        # One batched search: both lanes share each oracle round.
        assert stats.oracle_calls >= 2
        assert stats.rounds < stats.oracle_calls

    def test_as_pairs_ordered(self):
        table = TimeSlotTable.empty(10)
        vms = {
            1: vm_tasks((40, 1, 40), name="vm1"),
            0: vm_tasks((40, 1, 40), name="vm0"),
        }
        design = design_servers(table, vms)
        assert design.as_pairs() == [design.servers[0], design.servers[1]]

    def test_bandwidth_of(self):
        assert bandwidth_of([(10, 5), (20, 5)]) == pytest.approx(0.75)

"""Bandwidth-minimal server synthesis: optimality, pins, fast path."""

from fractions import Fraction

import pytest

from repro.analysis.gsched_test import gsched_schedulable
from repro.analysis.lsched_test import lsched_schedulable
from repro.analysis.servers import harmonic_fast_budget, minimum_budget
from repro.core.timeslot import TimeSlotTable
from repro.synth import servers as synth_servers
from repro.synth.servers import candidate_periods_for, synthesize_servers
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet


def admission_workload():
    table = TimeSlotTable.from_pattern([1, 0, 0, 1, 0, 0, 0, 0, 0, 0])
    vm_tasksets = {
        0: TaskSet(
            [
                IOTask("steer", period=100, wcet=8),
                IOTask("park", period=200, wcet=20),
            ],
            name="vm0",
        ),
        1: TaskSet(
            [
                IOTask("media", period=250, wcet=25),
                IOTask("nav", period=500, wcet=30),
            ],
            name="vm1",
        ),
    }
    return table, vm_tasksets


class TestSynthesizeServers:
    def test_feasible_and_verified(self):
        table, vms = admission_workload()
        outcome = synthesize_servers(table, vms)
        assert outcome.feasible
        assert set(outcome.servers) == {0, 1}
        assert outcome.global_result is not None
        assert outcome.global_result.schedulable
        for vm_id, (pi, theta) in outcome.servers.items():
            assert lsched_schedulable(pi, theta, vms[vm_id]).schedulable

    def test_beats_hand_written_baseline(self):
        table, vms = admission_workload()
        outcome = synthesize_servers(table, vms)
        hand_written = 8 / 20 + 6 / 20  # examples/admission_control.py
        assert outcome.bandwidth <= hand_written

    def test_budgets_are_exactly_minimal(self):
        # Shrinking any theta by one must break the design: either the
        # VM's own Theorem-4 test or nothing -- the search returns the
        # cheapest feasible point, so local minimality must hold.
        table, vms = admission_workload()
        outcome = synthesize_servers(table, vms)
        for vm_id, (pi, theta) in sorted(outcome.servers.items()):
            if theta == 1:
                continue
            assert not lsched_schedulable(pi, theta - 1, vms[vm_id]).schedulable

    def test_deterministic_across_reruns(self):
        table, vms = admission_workload()
        first = synthesize_servers(table, vms)
        second = synthesize_servers(table, vms)
        assert first.servers == second.servers
        assert first.stats.oracle_calls == second.stats.oracle_calls
        assert first.stats.bound_trajectory == second.stats.bound_trajectory

    def test_fixed_server_respected(self):
        table, vms = admission_workload()
        outcome = synthesize_servers(table, vms, fixed={0: (20, 8)})
        assert outcome.feasible
        assert outcome.servers[0] == (20, 8)

    def test_pinned_period_respected(self):
        table, vms = admission_workload()
        outcome = synthesize_servers(table, vms, pinned_periods={1: 10})
        assert outcome.feasible
        assert outcome.servers[1][0] == 10

    def test_empty_vms_trivially_feasible(self):
        table, _ = admission_workload()
        outcome = synthesize_servers(table, {})
        assert outcome.feasible
        assert outcome.servers == {}
        assert outcome.bandwidth == 0

    def test_overloaded_vm_reported_infeasible(self):
        table = TimeSlotTable.from_pattern([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        vms = {
            0: TaskSet([IOTask("hog", period=10, wcet=9)], name="vm0"),
        }
        outcome = synthesize_servers(table, vms)
        assert not outcome.feasible
        assert outcome.failures

    def test_as_design_backcompat(self):
        table, vms = admission_workload()
        outcome = synthesize_servers(table, vms)
        design = outcome.as_design()
        assert design.servers == outcome.servers
        assert bool(design.global_result.schedulable)

    def test_global_check_prunes_infeasible_assignments(self):
        # Both VMs want big budgets but the table only frees 8 of 10
        # slots; the assembly search must walk past the cheapest locally
        # feasible pairs until the Theorem-2 check passes.
        table, vms = admission_workload()
        outcome = synthesize_servers(table, vms)
        pairs = [outcome.servers[vm] for vm in sorted(outcome.servers)]
        assert gsched_schedulable(table, pairs).schedulable


class TestFinalGlobalVerdict:
    """The final Theorem-2 verdict is the assembly oracle's for the chosen
    servers, or a fresh check on the seed fallback; either way it equals
    the per-pair test on the returned servers."""

    def test_assembly_path_reuses_the_oracle_verdict(self, monkeypatch):
        table, vms = admission_workload()
        calls = []
        oracle = synth_servers.gsched_schedulable

        def counting(*args, **kwargs):
            calls.append(args)
            return oracle(*args, **kwargs)

        monkeypatch.setattr(synth_servers, "gsched_schedulable", counting)
        outcome = synthesize_servers(table, vms)
        assert not outcome.failures
        assert calls == []
        assert outcome.global_result == gsched_schedulable(table, outcome.as_pairs())

    def test_seed_fallback_checks_theorem_2(self):
        # F/H = 1/2 and the two VMs need about 0.3 each: no assignment
        # passes, so the seed design is verified on its own.
        table = TimeSlotTable.from_pattern([1, 0] * 5)
        vms = {
            vm: TaskSet([IOTask(f"t{vm}", period=40, wcet=12)], name=f"vm{vm}")
            for vm in (0, 1)
        }
        outcome = synthesize_servers(table, vms)
        assert -1 in outcome.failures
        assert outcome.global_result == gsched_schedulable(table, outcome.as_pairs())


class TestAssemblyStopsAtCapacity:
    """Theorem 2 rejects any servers whose total bandwidth exceeds the
    table's ``F/H``; the assembly search must stop there instead of
    grading those assignments."""

    @staticmethod
    def graded_bandwidths(monkeypatch, table, vms):
        graded = []
        oracle = synth_servers.gsched_schedulable_batch

        def counting(items, **kwargs):
            for _table, pairs in items:
                graded.append(sum((Fraction(theta, pi) for pi, theta in pairs), Fraction(0)))
            return oracle(items, **kwargs)

        monkeypatch.setattr(synth_servers, "gsched_schedulable_batch", counting)
        outcome = synthesize_servers(table, vms)
        return outcome, graded

    def test_no_over_capacity_assignment_reaches_the_oracle(self, monkeypatch):
        # F/H = 1/2, and the two VMs need about 0.3 each.
        table = TimeSlotTable.from_pattern([1, 0] * 5)
        vms = {
            vm: TaskSet([IOTask(f"t{vm}", period=40, wcet=12)], name=f"vm{vm}")
            for vm in (0, 1)
        }
        outcome, graded = self.graded_bandwidths(monkeypatch, table, vms)
        assert not outcome.feasible
        assert max(graded, default=0) <= Fraction(1, 2)

    def test_feasible_design_unchanged(self, monkeypatch):
        table, vms = admission_workload()
        outcome, graded = self.graded_bandwidths(monkeypatch, table, vms)
        assert outcome.feasible
        assert max(graded) <= Fraction(table.free_slots, table.total_slots)
        assert outcome.bandwidth == pytest.approx(0.4)


class TestHarmonicFastBudget:
    def test_matches_exact_minimum_on_harmonic_sets(self):
        tasks = TaskSet(
            [
                IOTask("a", period=8, wcet=1),
                IOTask("b", period=16, wcet=2),
                IOTask("c", period=32, wcet=2),
            ],
            name="harmonic",
        )
        for pi in (2, 4, 5, 8, 10, 16):
            fast = harmonic_fast_budget(pi, tasks)
            if fast is None:
                continue
            exact = minimum_budget(pi, tasks)
            assert exact is not None
            # Soundness: the closed-form budget passes the oracle...
            assert lsched_schedulable(pi, fast, tasks).schedulable
            # ...and never undercuts the exact search.
            assert fast >= exact

    def test_non_harmonic_returns_none(self):
        tasks = TaskSet(
            [IOTask("a", period=6, wcet=1), IOTask("b", period=10, wcet=1)],
            name="non-harmonic",
        )
        assert harmonic_fast_budget(4, tasks) is None

    def test_constrained_deadline_returns_none(self):
        tasks = TaskSet(
            [IOTask("a", period=8, wcet=1, deadline=4)], name="constrained"
        )
        assert harmonic_fast_budget(4, tasks) is None

    def test_empty_returns_none(self):
        assert harmonic_fast_budget(4, TaskSet(name="empty")) is None


class TestCandidatePeriods:
    def test_divisors_of_table_length_clipped_to_deadline(self):
        table = TimeSlotTable.from_pattern([1, 0] * 6)  # 12 slots
        tasks = TaskSet([IOTask("a", period=6, wcet=1)], name="t")
        periods = candidate_periods_for(table, tasks)
        assert all(period <= 6 for period in periods)
        assert all(12 % period == 0 or period == 6 for period in periods)
        assert periods == tuple(sorted(set(periods)))

    def test_seed_period_included(self):
        # A deadline of 10 seeds period 5, which does not divide the
        # 12-slot table but must still be a candidate.
        table = TimeSlotTable.from_pattern([1, 0] * 6)
        tasks = TaskSet([IOTask("a", period=10, wcet=1)], name="t")
        periods = candidate_periods_for(table, tasks)
        assert 5 in periods
        assert all(12 % period == 0 or period == 5 for period in periods)

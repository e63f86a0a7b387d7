"""Unit tests for the online admission controller."""

import pytest

from repro.core.admission import (
    AdmissionController,
    ConfigurationError,
)
from repro.core.gsched import ServerSpec
from repro.core.timeslot import TimeSlotTable
from repro.tasks.task import IOTask, TaskKind


def controller(free_pattern=None, servers=None):
    table = (
        TimeSlotTable.from_pattern(free_pattern)
        if free_pattern is not None
        else TimeSlotTable.empty(20)
    )
    servers = servers or [ServerSpec(0, 10, 5), ServerSpec(1, 10, 4)]
    return AdmissionController(table, servers)


def runtime_task(name, period, wcet, vm_id=0, deadline=None):
    return IOTask(
        name=name, period=period, wcet=wcet, deadline=deadline, vm_id=vm_id
    )


class TestConstruction:
    def test_duplicate_server_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AdmissionController(
                TimeSlotTable.empty(10),
                [ServerSpec(0, 10, 5), ServerSpec(0, 5, 1)],
            )

    def test_globally_infeasible_servers_rejected(self):
        # Table 50% free, cannot host 0.5 + 0.4 bandwidth of servers.
        table = TimeSlotTable.from_pattern([1, 0] * 10)
        with pytest.raises(ValueError, match="Theorem-2"):
            AdmissionController(
                table, [ServerSpec(0, 10, 5), ServerSpec(1, 10, 4)]
            )

    def test_infeasible_servers_raise_typed_configuration_error(self):
        """Services need a structured rejection: the error is typed and
        carries the Theorem-2 witness plus the offending triples."""
        table = TimeSlotTable.from_pattern([1, 0] * 10)
        with pytest.raises(ConfigurationError) as info:
            AdmissionController(
                table, [ServerSpec(0, 10, 5), ServerSpec(1, 10, 4)]
            )
        assert info.value.failing_t is not None
        assert info.value.servers == ((0, 10, 5), (1, 10, 4))
        # Still a ValueError, so pre-facade callers keep working.
        assert isinstance(info.value, ValueError)

    def test_duplicate_server_error_is_typed(self):
        with pytest.raises(ConfigurationError) as info:
            AdmissionController(
                TimeSlotTable.empty(10),
                [ServerSpec(0, 10, 5), ServerSpec(0, 5, 1)],
            )
        assert info.value.failing_t is None
        assert (0, 10, 5) in info.value.servers


class TestAdmission:
    def test_admit_light_task(self):
        ctrl = controller()
        decision = ctrl.try_admit(runtime_task("a", 100, 5))
        assert decision.schedulable
        assert "a" in ctrl.admitted_tasks(0)
        assert ctrl.admitted_count == 1

    def test_reject_overload(self):
        ctrl = controller()
        first = ctrl.try_admit(runtime_task("a", 40, 8))  # fits (10,5)
        assert first.schedulable
        second = ctrl.try_admit(runtime_task("b", 40, 9))  # would exceed
        assert not second.schedulable
        assert "Theorem 4" in second.reason
        assert "b" not in ctrl.admitted_tasks(0)
        assert ctrl.rejected_count == 1

    def test_rejection_leaves_state_untouched(self):
        ctrl = controller()
        ctrl.try_admit(runtime_task("a", 40, 8))
        before = ctrl.vm_utilization(0)
        ctrl.try_admit(runtime_task("b", 40, 9))
        assert ctrl.vm_utilization(0) == before

    def test_reject_tight_deadline_through_blackout(self):
        ctrl = controller()
        # Server (10, 5) has a 10-slot blackout; D=8 is unprotectable.
        decision = ctrl.try_admit(runtime_task("tight", 100, 1, deadline=8))
        assert not decision.schedulable

    def test_reject_predefined(self):
        ctrl = controller()
        task = IOTask(
            name="p", period=50, wcet=2, kind=TaskKind.PREDEFINED, vm_id=0
        )
        decision = ctrl.try_admit(task)
        assert not decision.schedulable
        assert "initialization" in decision.reason

    def test_reject_unknown_vm(self):
        ctrl = controller()
        decision = ctrl.try_admit(runtime_task("a", 100, 2, vm_id=9))
        assert not decision.schedulable
        assert "no server" in decision.reason

    def test_reject_duplicate_name(self):
        ctrl = controller()
        assert ctrl.try_admit(runtime_task("a", 100, 2))
        decision = ctrl.try_admit(runtime_task("a", 200, 1))
        assert not decision.schedulable
        assert "already admitted" in decision.reason

    def test_vm_isolation(self):
        """A saturated VM 0 does not block admissions into VM 1."""
        ctrl = controller()
        ctrl.try_admit(runtime_task("a", 40, 8, vm_id=0))
        assert not ctrl.try_admit(runtime_task("b", 40, 9, vm_id=0)).schedulable
        assert ctrl.try_admit(runtime_task("c", 100, 5, vm_id=1)).schedulable

    def test_withdraw_frees_capacity(self):
        ctrl = controller()
        ctrl.try_admit(runtime_task("a", 40, 8))
        assert not ctrl.try_admit(runtime_task("b", 40, 8)).schedulable
        withdrawn = ctrl.withdraw(0, "a")
        assert withdrawn.name == "a"
        assert ctrl.try_admit(runtime_task("b", 40, 8)).schedulable

    def test_withdraw_unknown(self):
        ctrl = controller()
        with pytest.raises(KeyError):
            ctrl.withdraw(0, "ghost")
        with pytest.raises(KeyError):
            ctrl.withdraw(9, "a")

    def test_decision_log(self):
        ctrl = controller()
        ctrl.try_admit(runtime_task("a", 100, 2))
        ctrl.try_admit(runtime_task("a", 100, 2))
        assert len(ctrl.decisions) == 2
        assert ctrl.decisions[0].schedulable
        assert not ctrl.decisions[1].schedulable


class TestDecisionRing:
    """The decision log must not grow without bound: a controller living
    inside a long-running server would otherwise leak memory.  The ring
    mirrors the TraceRecorder ``max_events``/``dropped_events`` contract:
    truncation is explicit, totals never decay."""

    def ring_controller(self, max_decisions):
        table = TimeSlotTable.empty(20)
        return AdmissionController(
            table,
            [ServerSpec(0, 10, 5), ServerSpec(1, 10, 4)],
            max_decisions=max_decisions,
        )

    def test_ring_is_bounded_and_counts_evictions(self):
        ctrl = self.ring_controller(max_decisions=3)
        for i in range(8):
            ctrl.try_admit(runtime_task(f"t{i}", 400, 1))
        assert len(ctrl.decisions) == 3
        assert ctrl.dropped_decisions == 5
        # The ring keeps the *newest* decisions.
        assert [d.task_name for d in ctrl.decisions] == ["t5", "t6", "t7"]

    def test_totals_survive_eviction(self):
        ctrl = self.ring_controller(max_decisions=2)
        admitted = rejected = 0
        for i in range(6):
            wcet = 1 if i % 2 == 0 else 300  # odd ones overload -> reject
            if ctrl.try_admit(runtime_task(f"t{i}", 400, wcet)).schedulable:
                admitted += 1
            else:
                rejected += 1
        assert ctrl.admitted_count == admitted
        assert ctrl.rejected_count == rejected
        assert (
            len(ctrl.decisions) + ctrl.dropped_decisions
            == admitted + rejected
        )

    def test_default_is_bounded(self):
        from repro.core.admission import DEFAULT_MAX_DECISIONS

        ctrl = controller()
        assert ctrl.max_decisions == DEFAULT_MAX_DECISIONS

    def test_unbounded_opt_in(self):
        ctrl = self.ring_controller(max_decisions=None)
        for i in range(10):
            ctrl.try_admit(runtime_task(f"t{i}", 400, 1))
        assert len(ctrl.decisions) == 10
        assert ctrl.dropped_decisions == 0

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="max_decisions"):
            self.ring_controller(max_decisions=0)

    def test_admitted_sets_always_schedulable(self):
        """Invariant: after any admission sequence, every VM's admitted
        set passes Theorem 4 against its server."""
        from repro.analysis.lsched_test import lsched_schedulable
        from repro.sim.rng import RandomSource

        ctrl = controller()
        rng = RandomSource(9, "adm")
        for i in range(30):
            period = rng.choice([20, 40, 50, 100, 200])
            wcet = rng.randint(1, max(1, period // 8))
            ctrl.try_admit(
                runtime_task(f"t{i}", period, wcet, vm_id=rng.choice([0, 1]))
            )
        for vm_id in (0, 1):
            spec = ctrl.server_of(vm_id)
            tasks = ctrl.admitted_tasks(vm_id)
            if len(tasks):
                assert lsched_schedulable(spec.pi, spec.theta, tasks).schedulable


class TestWithdrawInvalidation:
    """`withdraw` must drop the VM's memoized demand curve (the
    incremental-admission state), or subsequent admissions would test
    against the withdrawn task's demand."""

    def test_admit_withdraw_admit_matches_fresh_controller(self):
        sequence = [
            runtime_task("a", 40, 8),
            runtime_task("b", 80, 4),
            runtime_task("c", 120, 6),
        ]
        used = controller()
        for task in sequence:
            assert used.try_admit(task).schedulable
        used.withdraw(0, "b")
        fresh = controller()
        for task in sequence:
            if task.name != "b":
                assert fresh.try_admit(task).schedulable
        probe = runtime_task("probe", 40, 9)
        decision_used = used.try_admit(probe)
        decision_fresh = fresh.try_admit(probe)
        assert decision_used == decision_fresh
        assert decision_used.test_result == decision_fresh.test_result

    def test_withdrawn_demand_is_released(self):
        ctrl = controller()
        assert ctrl.try_admit(runtime_task("big", 40, 8)).schedulable
        assert not ctrl.try_admit(runtime_task("next", 40, 8)).schedulable
        ctrl.withdraw(0, "big")
        # With the stale curve this would still see "big"'s demand.
        assert ctrl.try_admit(runtime_task("next", 40, 8)).schedulable

    def test_incremental_flag_off_matches_on(self):
        table = TimeSlotTable.empty(20)
        servers = [ServerSpec(0, 10, 5), ServerSpec(1, 10, 4)]
        incremental = AdmissionController(table, servers, incremental=True)
        full = AdmissionController(table, servers, incremental=False)
        for i, (period, wcet, vm) in enumerate(
            [(40, 8, 0), (80, 4, 0), (40, 9, 0), (100, 5, 1), (50, 30, 1)]
        ):
            task = runtime_task(f"t{i}", period, wcet, vm_id=vm)
            assert incremental.try_admit(task) == full.try_admit(task)


class TestDeprecationShims:
    """The pre-facade ``admitted`` alias is removed, not aliased."""

    def test_admitted_alias_is_gone(self):
        from repro.core.admission import AdmissionDecision

        decision = controller().try_admit(runtime_task("a", 100, 5))
        assert not hasattr(decision, "admitted")
        with pytest.raises(TypeError):
            AdmissionDecision(admitted=True, task_name="x", vm_id=0)

    def test_schedulable_kwarg_does_not_warn(self):
        import warnings

        from repro.core.admission import AdmissionDecision

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decision = AdmissionDecision(
                schedulable=False, task_name="x", vm_id=0
            )
        assert not decision.schedulable

    def test_decision_satisfies_result_protocol(self):
        from repro.analysis.result import SchedulabilityResult

        ctrl = controller()
        decision = ctrl.try_admit(runtime_task("a", 100, 5))
        assert isinstance(decision, SchedulabilityResult)
        assert decision.failing_t is None
        assert "admitted" in decision.summary()
        rejected = ctrl.try_admit(runtime_task("b", 40, 16))
        assert isinstance(rejected, SchedulabilityResult)
        assert rejected.failing_t is not None

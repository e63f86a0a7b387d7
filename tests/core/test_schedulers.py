"""Unit tests for L-Sched and G-Sched."""

import json

import pytest

from repro.core.gsched import Allocation, GlobalScheduler, ServerSpec
from repro.core.lsched import LocalScheduler, edf_policy, fifo_policy
from repro.core.priority_queue import PriorityQueue
from repro.sim.trace import TraceRecorder
from repro.tasks.task import IOTask


def job(name, release, deadline_rel, period=1000):
    task = IOTask(name=name, period=period, wcet=2, deadline=deadline_rel)
    return task.job(release=release, index=0)


class TestLocalScheduler:
    def test_edf_selects_earliest_deadline(self):
        queue = PriorityQueue()
        lsched = LocalScheduler(queue)
        late, early = job("late", 0, 90), job("early", 5, 20)
        queue.insert(late)
        queue.insert(early)
        assert lsched.select() is early

    def test_fifo_policy_selects_first_arrival(self):
        queue = PriorityQueue()
        lsched = LocalScheduler(queue, policy=fifo_policy)
        first = job("first", 0, 90)
        second = job("second", 5, 20)
        queue.insert(first)
        queue.insert(second)
        assert lsched.select() is first

    def test_empty_queue_selects_none(self):
        lsched = LocalScheduler(PriorityQueue())
        assert lsched.select() is None

    def test_preemption_counted(self):
        queue = PriorityQueue()
        lsched = LocalScheduler(queue)
        low = job("low", 0, 90)
        queue.insert(low)
        lsched.select()
        urgent = job("urgent", 1, 10)
        queue.insert(urgent)
        lsched.select()
        assert lsched.preemption_count == 1
        assert low.preemption_count == 1

    def test_completion_is_not_preemption(self):
        queue = PriorityQueue()
        lsched = LocalScheduler(queue)
        a = job("a", 0, 10)
        queue.insert(a)
        lsched.select()
        a.remaining = 0
        queue.remove(a)
        b = job("b", 1, 20)
        queue.insert(b)
        lsched.select()
        assert lsched.preemption_count == 0


class TestServerSpec:
    def test_bandwidth(self):
        assert ServerSpec(0, 10, 4).bandwidth == pytest.approx(0.4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ServerSpec(0, 0, 1)
        with pytest.raises(ValueError):
            ServerSpec(0, 10, 0)
        with pytest.raises(ValueError):
            ServerSpec(0, 10, 11)


class TestGlobalScheduler:
    def make(self):
        return GlobalScheduler([
            ServerSpec(0, 10, 2),
            ServerSpec(1, 20, 5),
        ])

    def test_duplicate_vm_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            GlobalScheduler([ServerSpec(0, 10, 2), ServerSpec(0, 5, 1)])

    def test_replenishment_at_period_boundaries(self):
        gsched = self.make()
        gsched.tick(0)
        assert gsched.budget_of(0) == 2
        assert gsched.budget_of(1) == 5

    def test_budget_consumed_on_grant(self):
        gsched = self.make()
        gsched.tick(0)
        allocation = gsched.allocate(0, {0: 100})
        assert allocation == Allocation(vm_id=0, budgeted=True)
        assert gsched.budget_of(0) == 1

    def test_idle_when_no_pending(self):
        gsched = self.make()
        gsched.tick(0)
        assert gsched.allocate(0, {}) is None
        assert gsched.idle_slots == 1

    def test_edf_by_server_deadline(self):
        # VM0 server deadline 10, VM1 server deadline 20: VM0 wins.
        gsched = self.make()
        gsched.tick(0)
        allocation = gsched.allocate(0, {0: 500, 1: 100})
        assert allocation.vm_id == 0

    def test_background_when_budget_exhausted(self):
        gsched = GlobalScheduler([ServerSpec(0, 10, 1)])
        gsched.tick(0)
        first = gsched.allocate(0, {0: 100})
        assert first.budgeted
        second = gsched.allocate(1, {0: 100})
        assert second is not None and not second.budgeted
        assert gsched.background_grants == 1

    def test_background_uses_job_edf(self):
        gsched = GlobalScheduler([ServerSpec(0, 10, 1), ServerSpec(1, 10, 1)])
        gsched.tick(0)
        gsched.allocate(0, {0: 100, 1: 100})
        gsched.allocate(0, {0: 100, 1: 100})
        # Both budgets exhausted: the staged job with the earlier
        # deadline gets the background slot.
        allocation = gsched.allocate(1, {0: 100, 1: 50})
        assert allocation.vm_id == 1
        assert not allocation.budgeted

    def test_replenishment_restores_budget(self):
        gsched = GlobalScheduler([ServerSpec(0, 10, 1)])
        gsched.tick(0)
        gsched.allocate(0, {0: 100})
        assert gsched.budget_of(0) == 0
        for slot in range(1, 11):
            gsched.tick(slot)
        assert gsched.budget_of(0) == 1

    def test_total_bandwidth(self):
        assert self.make().total_bandwidth == pytest.approx(0.2 + 0.25)

    def test_tick_catches_up_after_slot_jump(self):
        """A clock jump over several period boundaries still replenishes.

        Regression: replenishment used to fire only at exact
        ``slot % pi == 0`` ticks, so an executor that skipped those
        slots (P-channel windows, a fault-stalled run) starved the
        server forever.
        """
        gsched = GlobalScheduler([ServerSpec(0, 10, 2)])
        gsched.tick(0)
        gsched.allocate(0, {0: 100})
        gsched.allocate(0, {0: 100})
        assert gsched.budget_of(0) == 0
        # Jump straight past three boundaries to a non-boundary slot.
        gsched.tick(35)
        assert gsched.budget_of(0) == 2

    def test_catchup_deadline_from_most_recent_boundary(self):
        gsched = GlobalScheduler([ServerSpec(0, 10, 2)])
        gsched.tick(0)
        gsched.tick(37)  # most recent boundary is 30
        assert gsched._states[0].deadline == 40

    def test_budget_does_not_accumulate_across_missed_periods(self):
        gsched = GlobalScheduler([ServerSpec(0, 10, 2)])
        gsched.tick(0)
        gsched.tick(95)  # nine boundaries skipped
        assert gsched.budget_of(0) == 2  # theta, not 9 * theta

    def test_mid_period_tick_does_not_replenish(self):
        gsched = GlobalScheduler([ServerSpec(0, 10, 2)])
        gsched.tick(0)
        gsched.allocate(0, {0: 100})
        for slot in range(1, 10):
            gsched.tick(slot)
            assert gsched.budget_of(0) == 1
        gsched.tick(10)
        assert gsched.budget_of(0) == 2

    def test_jump_equivalent_to_slot_by_slot(self):
        """Jumping the clock gives the same state as ticking every slot."""
        specs = [ServerSpec(0, 7, 3), ServerSpec(1, 13, 5)]
        stepped, jumped = GlobalScheduler(specs), GlobalScheduler(specs)
        for slot in range(60):
            stepped.tick(slot)
        jumped.tick(59)
        for spec in specs:
            assert (
                stepped.budget_of(spec.vm_id) == jumped.budget_of(spec.vm_id)
            )
            assert (
                stepped._states[spec.vm_id].deadline
                == jumped._states[spec.vm_id].deadline
            )

    def test_guarantee_over_window(self):
        """A backlogged VM receives at least Theta slots per Pi."""
        gsched = GlobalScheduler([ServerSpec(0, 10, 3), ServerSpec(1, 10, 3)])
        grants = {0: 0, 1: 0}
        for slot in range(100):
            gsched.tick(slot)
            allocation = gsched.allocate(slot, {0: 1000, 1: 1000})
            if allocation is not None and allocation.budgeted:
                grants[allocation.vm_id] += 1
        # 10 periods, 3 budgeted slots each, both VMs always pending.
        assert grants[0] >= 30
        assert grants[1] >= 30


def reference_tick(gsched, slot):
    """``GlobalScheduler.tick`` without its boundary fast path: ask
    every server whether a replenishment is due."""
    for state in gsched._states.values():
        if state.replenish_if_due(slot) and gsched.trace is not None:
            gsched.trace.record(
                slot,
                "gsched.replenish",
                gsched.name,
                vm=state.spec.vm_id,
                budget=state.budget,
                server_deadline=state.deadline,
            )


def replay(specs, slots, tick):
    """Tick through ``slots`` (spending a budget unit each slot); the
    ``gsched.replenish`` events and per-slot budget state."""
    trace = TraceRecorder()
    gsched = GlobalScheduler(specs, trace=trace)
    backlog = {spec.vm_id: 10**6 for spec in specs}
    states = []
    for slot in slots:
        tick(gsched, slot)
        gsched.allocate(slot, backlog)
        states.append(
            [
                (gsched.budget_of(spec.vm_id), gsched._states[spec.vm_id].deadline)
                for spec in specs
            ]
        )
    events = [
        json.dumps([event.time, event.source, event.payload], sort_keys=True)
        for event in trace.by_category("gsched.replenish")
    ]
    return events, states


class TestTickFastPath:
    """``tick`` skips slots before the earliest pending boundary; it must
    replenish exactly when asking every server each slot did."""

    COPRIME = [ServerSpec(0, 3, 1), ServerSpec(1, 5, 2), ServerSpec(2, 7, 3)]

    @pytest.mark.parametrize(
        "slots",
        [
            pytest.param(list(range(3 * 5 * 7 * 2 + 1)), id="slot-by-slot"),
            pytest.param([0, 1, 17, 18, 40, 41, 105, 106, 211], id="jumps"),
            pytest.param([0, 5, 5, 3, 10, 10, 7, 21, 14, 22, 0, 35], id="repeats"),
            pytest.param([4, 2, 9, 30, 29, 31, 70], id="late-start"),
        ],
    )
    def test_matches_per_server_loop(self, slots):
        fast = replay(self.COPRIME, slots, GlobalScheduler.tick)
        reference = replay(self.COPRIME, slots, reference_tick)
        assert fast == reference

    def test_coprime_slot_by_slot_replenishes_every_boundary(self):
        horizon = 3 * 5 * 7
        events, _states = replay(self.COPRIME, range(horizon), GlobalScheduler.tick)
        assert len(events) == sum(horizon // spec.pi for spec in self.COPRIME)

    def test_jump_replenishes_once_from_latest_boundary(self):
        events, states = replay(self.COPRIME, [0, 50], GlobalScheduler.tick)
        # Three servers at slot 0, three catch-ups at slot 50; the
        # earliest server deadline (51) wins the slot-50 grant.
        assert len(events) == 6
        assert states[-1] == [(0, 51), (2, 55), (3, 56)]

    def test_no_servers(self):
        gsched = GlobalScheduler([])
        gsched.tick(0)
        gsched.tick(10**9)
        assert gsched.allocate(10**9, {}) is None

"""``RChannel.run_until`` against stepping ``execute_slot`` on every free
slot, with EDF pools and with FIFO pools.

The batch executor must complete the same jobs at the same slots and
leave the channel where the slot-stepped reference leaves it: G-Sched
budgets, deadlines and counters, channel, pool, queue and L-Sched
counters, job stamps and preemption counts (read from the returned
columns for a completed job), and the unfinished jobs buffered in queue
order -- the only jobs the executor builds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.gsched import Allocation, ServerSpec
from repro.core.lsched import edf_policy, fifo_policy
from repro.core.rchannel import RChannel, RChannelArrivals
from repro.core.timeslot import TimeSlotTable
from repro.sim.trace import TraceRecorder
from repro.tasks.task import IOTask


def make_arrivals(specs):
    """Fresh ``(arrival slot, job)`` pairs from ``(slot, vm, wcet,
    deadline, remaining[, lag])`` specs, in time order; a job is
    released ``lag`` slots (default 2) before it arrives, not before 0."""
    arrivals = []
    for index, (slot, vm_id, wcet, deadline, remaining, *lag) in enumerate(specs):
        task = IOTask(
            name=f"t{index}", period=deadline, wcet=wcet, deadline=deadline,
            vm_id=vm_id,
        )
        job = task.job(release=max(0, slot - (lag[0] if lag else 2)), index=0)
        job.remaining = remaining
        arrivals.append((slot, job))
    arrivals.sort(key=lambda pair: pair[0])
    return arrivals


def arrival_columns(arrivals):
    """``(arrival slot, job)`` pairs as :class:`RChannelArrivals`."""
    return RChannelArrivals(
        *(
            np.array(values, dtype=np.int64).reshape(len(arrivals))
            for values in (
                [slot for slot, _job in arrivals],
                [job.task.vm_id for _slot, job in arrivals],
                [job.release for _slot, job in arrivals],
                [job.absolute_deadline for _slot, job in arrivals],
                [job.remaining for _slot, job in arrivals],
            )
        )
    )


def job_states(jobs):
    return [
        (job.name, job.remaining, job.started_at, job.completed_at, job.preemption_count)
        for job in jobs
    ]


def run_columns(channel, horizon, arrivals, table):
    """``run_until`` over ``arrivals`` (left untouched); returns the
    ``(name, slot)`` completions and every arrival's job state, a
    completed job's read from the columns and a leftover's from the job
    the executor built for it."""
    built = {}

    def make_job(row):
        _slot, job = arrivals[row]
        fresh = job.task.job(release=job.release, index=job.index)
        built[row] = fresh
        return fresh

    done = channel.run_until(horizon, arrival_columns(arrivals), table, make_job)
    for column in done:
        assert column.dtype == np.int64
    states = job_states(job for _slot, job in arrivals)
    for row, slot, first, preemptions in zip(*(column.tolist() for column in done)):
        assert row not in built
        states[row] = (
            arrivals[row][1].name, 0, float(first), float(slot + 1), preemptions
        )
    queued = [job for pool in channel.pools.values() for job in pool.queue.jobs()]
    assert sorted(map(id, built.values())) == sorted(map(id, queued))
    for row, job in built.items():
        states[row] = job_states([job])[0]
    completions = [
        (arrivals[row][1].name, slot)
        for row, slot in zip(done.row.tolist(), done.slot.tolist())
    ]
    return completions, states


def stepped(channel, horizon, arrivals, table):
    """Reference: submit due arrivals, tick and execute each free slot;
    arrivals after the last free slot still reach their pools."""
    completed, cursor = [], 0

    def submit_through(slot):
        nonlocal cursor
        while cursor < len(arrivals) and arrivals[cursor][0] <= slot:
            channel.submit(arrivals[cursor][1])
            cursor += 1

    for slot in range(horizon):
        if table.is_occupied(slot):
            continue
        submit_through(slot)
        channel.tick(slot)
        job = channel.execute_slot(slot)
        if job is not None:
            completed.append((job, slot))
    submit_through(horizon - 1)
    return completed


def channel_state(channel):
    """Everything ``run_until`` promises to leave as stepping does,
    jobs apart."""
    gsched = channel.gsched
    return {
        "servers": [
            (vm_id, state.budget, state.deadline, state.slots_consumed)
            for vm_id, state in gsched._states.items()
        ],
        "next_boundary": gsched.next_boundary,
        "gsched": (
            gsched.idle_slots, gsched.budgeted_grants, gsched.background_grants
        ),
        "channel": (
            channel.slots_executed,
            channel.jobs_completed,
            channel.last_allocation,
        ),
        "pools": [
            (
                vm_id,
                pool.submitted,
                pool.rejected,
                pool.completed,
                pool.reject_streak,
                pool.max_reject_streak,
                pool.lsched.preemption_count,
                pool.queue.total_inserted,
                pool.queue.total_removed,
                pool.queue.peak_occupancy,
                [job.name for job in pool.queue.jobs()],
                pool.shadow.name if pool.shadow is not None else None,
            )
            for vm_id, pool in channel.pools.items()
        ],
    }


def assert_matches_stepping(
    servers, capacity, pattern, horizon, specs, policy=edf_policy
):
    table = TimeSlotTable.from_pattern(pattern)
    calls = []
    reference = RChannel(
        servers, pool_capacity=capacity, policy=policy,
        on_complete=lambda job, slot: calls.append((job.name, slot)),
    )
    channel = RChannel(servers, pool_capacity=capacity, policy=policy)
    ref_arrivals, arrivals = make_arrivals(specs), make_arrivals(specs)
    expected = [
        (job.name, slot)
        for job, slot in stepped(reference, horizon, ref_arrivals, table)
    ]
    actual, states = run_columns(channel, horizon, arrivals, table)
    assert actual == expected
    assert calls == expected
    assert [job.name for job in reference.completed_jobs] == [
        name for name, _slot in expected
    ]
    assert channel.completed_jobs == []
    assert channel_state(channel) == channel_state(reference)
    assert states == job_states(job for _slot, job in ref_arrivals)
    return channel


@st.composite
def scenarios(draw, lags=st.just(())):
    """``lags`` draws the optional release-lag suffix of each spec."""
    vm_count = draw(st.integers(min_value=1, max_value=3))
    servers = []
    for vm_id in range(vm_count):
        # Co-prime and harmonic periods; budgets from 1 (runs out
        # quickly) to the full period.
        pi = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
        servers.append(ServerSpec(vm_id, pi, draw(st.integers(1, pi))))
    capacity = draw(st.sampled_from([1, 2, 3, 64]))
    pattern = draw(st.lists(st.integers(0, 1), min_size=1, max_size=12))
    horizon = draw(st.integers(min_value=0, max_value=90))
    # Some VMs may receive no job at all; arrivals reach past the
    # horizon.
    specs = draw(
        st.lists(
            st.tuples(
                st.integers(0, horizon + 8),
                st.integers(0, vm_count - 1),
                st.integers(1, 6),
                st.integers(6, 40),
                st.integers(1, 6),
            ).flatmap(lambda spec: lags.map(lambda lag: spec + lag)),
            max_size=30,
        )
    )
    return servers, capacity, pattern, horizon, specs


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
# Co-prime periods, a budget that runs out, an empty VM, capacity 1.
@example(
    scenario=(
        [ServerSpec(0, 3, 1), ServerSpec(1, 7, 2), ServerSpec(2, 5, 5)], 1,
        [0, 1, 0, 0, 1], 60,
        [(0, 0, 5, 30, 5), (0, 0, 2, 10, 2), (1, 1, 4, 20, 4), (2, 0, 1, 8, 1),
         (9, 1, 6, 12, 6), (9, 1, 1, 9, 1)],
    )
)
# The horizon ends inside an occupied stretch: the last arrivals come
# after the last free slot, one of them at the horizon itself.
@example(
    scenario=(
        [ServerSpec(0, 4, 2), ServerSpec(1, 4, 1)], 2,
        [0, 0, 0, 1, 1, 1, 1, 1], 21,
        [(3, 0, 2, 10, 2), (18, 1, 1, 8, 1), (20, 0, 1, 6, 1), (21, 1, 1, 6, 1)],
    )
)
# Equal staged deadlines: budgeted and background ties go to the lower
# vm_id.
@example(
    scenario=(
        [ServerSpec(0, 9, 1), ServerSpec(1, 9, 1)], 64, [0], 12,
        [(0, 1, 3, 20, 3), (0, 0, 3, 20, 3)],
    )
)
def test_run_until_matches_stepping(scenario):
    assert_matches_stepping(*scenario)


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios(lags=st.tuples(st.integers(0, 12))))
# Late arrivals released with the head: one due earlier preempts it,
# one due later does not, and equal (release, deadline) go by arrival.
@example(
    scenario=(
        [ServerSpec(0, 10, 10)], 64, [0], 30,
        [(0, 0, 6, 30, 6, 0), (2, 0, 2, 8, 2, 9), (3, 0, 2, 40, 2, 3),
         (4, 0, 1, 20, 1, 4), (4, 0, 1, 20, 1, 4)],
    )
)
# Budgeted and background ties across VMs under FIFO heads.
@example(
    scenario=(
        [ServerSpec(0, 4, 1), ServerSpec(1, 4, 1)], 2, [0, 1], 40,
        [(0, 1, 3, 20, 3, 0), (0, 0, 3, 20, 3, 0), (5, 0, 2, 6, 2, 5),
         (6, 1, 4, 30, 4, 1), (7, 1, 1, 7, 1, 7)],
    )
)
def test_fifo_run_until_matches_stepping(scenario):
    assert_matches_stepping(*scenario, policy=fifo_policy)


def test_fifo_serves_by_release_then_deadline():
    # The second job (due at 6) arrives behind the first (released at 0,
    # due at 30) but was released later: FIFO keeps the first staged,
    # where EDF would preempt it.  The third, released with the first
    # and due earlier (at 20), preempts it.
    channel = assert_matches_stepping(
        [ServerSpec(0, 10, 10)], 64, [0], 20,
        [(0, 0, 6, 30, 6, 0), (2, 0, 2, 4, 2, 0), (3, 0, 1, 20, 1, 5)],
        policy=fifo_policy,
    )
    assert channel.pools[0].lsched.preemption_count == 1


def test_fifo_leftovers_stay_in_arrival_order():
    # No free slot: both jobs are left queued, due at 20; the second
    # arrived later but was released first, so it heads the FIFO pool
    # while the queue keeps them in arrival order.
    channel = assert_matches_stepping(
        [ServerSpec(0, 10, 4)], 64, [1], 10,
        [(5, 0, 2, 15, 2, 0), (6, 0, 2, 20, 2, 6)],
        policy=fifo_policy,
    )
    assert channel.pools[0].shadow.task.name == "t1"
    assert channel.pools[0].lsched.preemption_count == 1


def test_preemption_by_an_earlier_deadline():
    channel = assert_matches_stepping(
        [ServerSpec(0, 10, 10)], 64, [0], 20,
        [(0, 0, 6, 30, 6), (2, 0, 2, 8, 2), (3, 0, 1, 20, 1)],
    )
    assert channel.pools[0].lsched.preemption_count == 1


def test_no_free_slot():
    channel = assert_matches_stepping(
        [ServerSpec(0, 5, 2)], 2, [1, 1], 10,
        [(0, 0, 1, 10, 1), (4, 0, 1, 10, 1), (5, 0, 1, 10, 1), (12, 0, 1, 10, 1)],
    )
    assert channel.pools[0].rejected == 1
    assert channel.last_allocation is None


def test_last_allocation_is_the_last_free_slot_decision():
    channel = assert_matches_stepping(
        [ServerSpec(0, 10, 2)], 64, [0], 6, [(0, 0, 6, 20, 6)]
    )
    assert channel.last_allocation == Allocation(0, budgeted=False)


class TestPreconditions:
    def make(self, trace=None):
        return RChannel([ServerSpec(0, 10, 4), ServerSpec(1, 10, 4)], trace=trace)

    def test_trace_recorder_refused(self):
        channel = self.make(trace=TraceRecorder())
        with pytest.raises(ValueError, match="trace"):
            run_columns(channel, 10, [], TimeSlotTable.empty(5))

    @pytest.mark.parametrize("use", ["tick", "execute", "submit"])
    def test_used_channel_refused(self, use):
        channel = self.make()
        if use == "tick":
            channel.tick(0)
        elif use == "execute":
            channel.execute_slot(0)
        else:
            (_slot, job), = make_arrivals([(0, 0, 1, 10, 1)])
            channel.submit(job)
        with pytest.raises(ValueError, match="run no slot"):
            run_columns(channel, 10, [], TimeSlotTable.empty(5))

    def test_quarantined_vm_refused(self):
        channel = self.make()
        channel.quarantine_vm(1)
        with pytest.raises(ValueError, match="quarantined"):
            run_columns(channel, 10, [], TimeSlotTable.empty(5))

    def test_completion_hook_refused(self):
        channel = RChannel(
            [ServerSpec(0, 10, 4)], on_complete=lambda job, slot: None
        )
        with pytest.raises(ValueError, match="on_complete"):
            run_columns(channel, 10, [], TimeSlotTable.empty(5))

    def test_non_edf_policy_refused(self):
        channel = RChannel(
            [ServerSpec(0, 10, 4)], policy=lambda queue: queue.peek()
        )
        with pytest.raises(ValueError, match="EDF or FIFO"):
            run_columns(channel, 10, [], TimeSlotTable.empty(5))

"""Differential test: the event-skipping I/O-GUARD trial loop against a
slot-stepped reference.

``stepped_run_trial`` below is the straightforward loop the simulator
used before it learned to skip idle free slots: every slot of the
horizon submits the arrivals due, ticks G-Sched and runs either the
P-channel or the R-channel.  It lives here, test-only, as the oracle.
Every ``TrialResult`` field and every G-Sched counter must agree.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.ioguard_system as ioguard_module
from repro.baselines import IOGuardSystem, TrialConfig, prepare_workload
from repro.core.pchannel import PChannel
from repro.core.rchannel import RChannel
from repro.sim.rng import RandomSource
from repro.tasks import build_case_study_taskset, pad_to_target_utilization
from repro.tasks.task import Criticality, IOTask
from repro.tasks.taskset import TaskSet


def stepped_run_trial(system, workload, rng):
    """Reference trial: step every slot; returns (result, pchannel,
    rchannel)."""
    result = system._new_result(workload)
    config = workload.config
    split, table = system._split_with_fallback(workload.taskset)
    runtime = split.runtime()
    servers = system._dimension_servers(table, runtime)

    pchannel = PChannel(split.predefined(), table=table)
    rchannel = RChannel(servers, pool_capacity=max(64, len(runtime) * 4))

    predefined_names = {task.name for task in split.predefined()}
    load = min(0.95, workload.target_utilization * system.noc_load_factor)

    arrivals = []
    for released in workload.releases:
        if released.task.name in predefined_names:
            continue
        delay = system._request_delay_slots(released, load, rng, workload)
        arrivals.append((int(math.ceil(released.release_slot + delay)), released))
    arrivals.sort(key=lambda pair: pair[0])

    horizon = config.horizon_slots
    cursor = 0
    completed = []
    for slot in range(horizon):
        while cursor < len(arrivals) and arrivals[cursor][0] <= slot:
            _arrival, released = arrivals[cursor]
            job = released.task.job(release=released.release_slot, index=released.index)
            job.remaining = released.actual_slots
            rchannel.submit(job)
            cursor += 1
        rchannel.tick(slot)
        if pchannel.occupies(slot):
            job = pchannel.execute_slot(slot)
        else:
            job = rchannel.execute_slot(slot)
        if job is not None:
            completed.append((job, slot))

    for job, slot in completed:
        deadline = job.release + job.task.deadline
        if deadline > horizon:
            continue
        response = system._response_delay_slots(job, load, rng, workload)
        finish = (slot + 1) + response
        result.record(job.task.criticality, finish > deadline)
        result.bytes_transferred += job.task.payload_bytes
        elapsed = finish - job.release
        result.response_slots_sum += elapsed
        result.response_slots_max = max(result.response_slots_max, elapsed)
        if config.collect_responses and job.task.criticality.counts_for_success:
            result.record_response_sample(job.task.name, elapsed)

    for pool in rchannel.pools.values():
        for job in pool.queue.jobs():
            if job.release + job.task.deadline <= horizon:
                result.record(job.task.criticality, True)
                result.unfinished += 1
    return result, pchannel, rchannel


def recording(channel_type):
    """Subclass of ``channel_type`` that remembers its instances."""

    class Recording(channel_type):
        created = []

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.created.append(self)

    return Recording


def run_new(system, workload, rng):
    """``IOGuardSystem.run_trial``; returns (result, pchannel, rchannel)."""
    pchannel_type, rchannel_type = recording(PChannel), recording(RChannel)
    with mock.patch.object(ioguard_module, "PChannel", pchannel_type), \
            mock.patch.object(ioguard_module, "RChannel", rchannel_type):
        result = system.run_trial(workload, rng)
    (pchannel,) = pchannel_type.created
    (rchannel,) = rchannel_type.created
    return result, pchannel, rchannel


def assert_same_trial(system, workload, seed):
    expected, ref_pchannel, reference = stepped_run_trial(
        system, workload, RandomSource(seed, "sys")
    )
    actual, pchannel, rchannel = run_new(system, workload, RandomSource(seed, "sys"))
    assert actual == expected
    for counter in ("idle_slots", "budgeted_grants", "background_grants"):
        assert getattr(rchannel.gsched, counter) == getattr(reference.gsched, counter), counter
    assert rchannel.slots_executed == reference.slots_executed
    assert rchannel.jobs_completed == reference.jobs_completed
    for vm_id, pool in rchannel.pools.items():
        ref_pool = reference.pools[vm_id]
        assert pool.submitted == ref_pool.submitted
        assert pool.rejected == ref_pool.rejected
        assert pool.completed == ref_pool.completed
        assert pool.lsched.preemption_count == ref_pool.lsched.preemption_count
    assert pchannel.slots_executed == ref_pchannel.slots_executed
    assert pchannel.jobs_completed == ref_pchannel.jobs_completed
    return rchannel


def case_study_workload(seed, vm_count, utilization, horizon):
    rng = RandomSource(seed, "wl")
    padded = pad_to_target_utilization(
        build_case_study_taskset(vm_count=vm_count),
        utilization,
        rng.spawn("pad"),
        vm_count=vm_count,
    )
    config = TrialConfig(horizon_slots=horizon, collect_responses=True)
    return prepare_workload(padded, config, rng.spawn("draws"), target_utilization=utilization)


@settings(max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    vm_count=st.sampled_from([4, 8]),
    utilization=st.sampled_from([0.3, 0.5, 0.7, 0.85, 0.95, 1.0]),
    preload=st.sampled_from([0.0, 0.4, 0.7, 1.0]),
    # 1_499 is shorter than every non-empty P-channel table the case
    # study builds (4_000 or 20_000 slots).
    horizon=st.sampled_from([1_499, 4_001, 9_973]),
)
def test_event_skipping_matches_stepped(
    seed, vm_count, utilization, preload, horizon
):
    workload = case_study_workload(seed, vm_count, utilization, horizon)
    assert_same_trial(IOGuardSystem(preload), workload, seed)


@pytest.mark.parametrize("placement", ["spread", "contiguous"])
def test_contiguous_and_analytic_configurations(placement):
    workload = case_study_workload(11, 4, 0.8, 6_007)
    assert_same_trial(IOGuardSystem(0.7, placement=placement), workload, 11)
    assert_same_trial(
        IOGuardSystem(0.4, server_policy="analytic"), workload, 11
    )


def test_no_runtime_arrivals():
    """Every task pre-defined: the R-channel idles through the horizon."""
    tasks = TaskSet(
        [
            IOTask(
                name=f"p{i}",
                period=100 * (i + 1),
                wcet=5,
                vm_id=i % 2,
                criticality=Criticality.SAFETY,
            )
            for i in range(4)
        ]
    )
    horizon = 3_317
    workload = prepare_workload(
        tasks,
        TrialConfig(horizon_slots=horizon, collect_responses=True),
        RandomSource(3, "wl"),
        target_utilization=0.2,
    )
    system = IOGuardSystem(1.0)
    rchannel = assert_same_trial(system, workload, 3)
    _split, table = system._split_with_fallback(workload.taskset)
    free_in_horizon = sum(table.is_free(slot) for slot in range(horizon))
    assert rchannel.gsched.idle_slots == free_in_horizon
    assert rchannel.slots_executed == 0


def test_arrivals_after_the_last_free_slot_reach_their_pools():
    """The horizon ends inside a P-channel window: run-time jobs that
    arrive there are still buffered, and counted unfinished when their
    deadline falls inside the horizon."""
    tasks = TaskSet(
        [
            IOTask(name="p", period=100, wcet=40, vm_id=0),
            IOTask(name="r", period=50, wcet=2, deadline=30, vm_id=1),
        ]
    )
    config = TrialConfig(
        horizon_slots=1_040,
        randomize_phases=False,
        release_jitter_fraction=0.0,
    )
    workload = prepare_workload(tasks, config, RandomSource(5, "wl"), 0.5)
    system = IOGuardSystem(0.5, placement="contiguous")
    _split, table = system._split_with_fallback(workload.taskset)
    assert all(table.is_occupied(slot) for slot in range(1_000, 1_040))
    rchannel = assert_same_trial(system, workload, 5)
    assert rchannel.pools[1].submitted == 21

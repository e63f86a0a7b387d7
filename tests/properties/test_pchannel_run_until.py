"""``PChannel.run_until`` against stepping ``execute_slot`` slot by slot.

The columnar completions must equal the slot-stepped ones -- the same
jobs (task, index, release, first slot) completing at the same slots, in
the same order -- and leave every counter and the in-flight state where
stepping leaves them.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.pchannel import PChannel
from repro.core.timeslot import (
    TableOverflowError,
    build_pchannel_table,
    stagger_offsets,
)
from repro.tasks.task import IOTask, TaskKind
from repro.tasks.taskset import TaskSet


def stepped(channel, horizon):
    completed = []
    for slot in range(horizon):
        if channel.occupies(slot):
            job = channel.execute_slot(slot)
            if job is not None:
                completed.append((job, slot))
    return completed


def channel_state(channel):
    return (
        channel.slots_executed,
        channel.jobs_completed,
        list(channel._in_flight.items()),
        list(channel._job_counts.items()),
    )


def assert_run_until_matches_stepping(tasks, table, activation_slot, horizon):
    reference = PChannel(tasks, table=table, activation_slot=activation_slot)
    channel = PChannel(tasks, table=table, activation_slot=activation_slot)
    expected = stepped(reference, horizon)
    completions = channel.run_until(horizon)
    position = {task.name: index for index, task in enumerate(tasks)}
    rows = [
        [position[job.task.name], job.index, job.release, int(job.started_at), slot]
        for job, slot in expected
    ]
    assert all(column.dtype == np.int64 for column in completions)
    assert np.column_stack(completions).tolist() == rows
    assert channel_state(channel) == channel_state(reference)
    assert channel.completed_jobs == []
    return expected


@st.composite
def predefined_tasksets(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    tasks = []
    for index in range(count):
        period = draw(st.sampled_from([10, 20, 25, 40, 50, 100]))
        wcet = draw(st.integers(min_value=1, max_value=max(1, period // 5)))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        tasks.append(
            IOTask(
                name=f"p{index}",
                period=period,
                wcet=wcet,
                deadline=deadline,
                offset=draw(st.integers(min_value=0, max_value=period - 1)),
                vm_id=index % 2,
                kind=TaskKind.PREDEFINED,
            )
        )
    taskset = TaskSet(tasks)
    if draw(st.booleans()):
        taskset = stagger_offsets(taskset)
    return taskset


@settings(max_examples=80, deadline=None)
@given(
    tasks=predefined_tasksets(),
    placement=st.sampled_from(["spread", "contiguous"]),
    activation_cycles=st.floats(min_value=0.0, max_value=2.5),
    horizon_cycles=st.floats(min_value=0.0, max_value=3.7),
)
def test_run_until_equals_stepping(tasks, placement, activation_cycles, horizon_cycles):
    try:
        table = build_pchannel_table(tasks, placement=placement)
    except TableOverflowError:
        assume(False)
    activation = int(activation_cycles * table.length)
    horizon = int(horizon_cycles * table.length)
    assert_run_until_matches_stepping(tasks, table, activation, horizon)


@pytest.mark.parametrize("placement", ["spread", "contiguous"])
def test_horizon_before_the_first_offset(placement):
    tasks = TaskSet(
        [IOTask(name="late", period=100, wcet=4, offset=60, kind=TaskKind.PREDEFINED)]
    )
    table = build_pchannel_table(tasks, placement=placement)
    if placement == "spread":
        # The window [60, 160) wraps: the first cycle idles through the
        # table slots before the offset.
        assert min(table.entries) < 60
    assert assert_run_until_matches_stepping(tasks, table, 0, 50) == []
    # Past the offset, but not a multiple of H.
    assert len(assert_run_until_matches_stepping(tasks, table, 0, 357)) == 3


def test_activation_skips_windows_released_before_it():
    tasks = TaskSet(
        [
            IOTask(name="a", period=20, wcet=3, offset=5, kind=TaskKind.PREDEFINED),
            IOTask(name="b", period=40, wcet=7, offset=11, kind=TaskKind.PREDEFINED),
        ]
    )
    table = build_pchannel_table(tasks, placement="contiguous")
    completions = assert_run_until_matches_stepping(tasks, table, 47, 173)
    assert all(job.release >= 47 for job, _slot in completions)


def test_run_until_refuses_a_used_channel():
    tasks = TaskSet([IOTask(name="a", period=10, wcet=2, kind=TaskKind.PREDEFINED)])
    channel = PChannel(tasks)
    channel.execute_slot(channel.table.occupied_indices()[0])
    with pytest.raises(ValueError):
        channel.run_until(100)


def test_run_until_refuses_a_completion_hook():
    tasks = TaskSet([IOTask(name="a", period=10, wcet=2, kind=TaskKind.PREDEFINED)])
    channel = PChannel(tasks, on_complete=lambda job, slot: None)
    with pytest.raises(ValueError, match="on_complete"):
        channel.run_until(100)
    assert channel.slots_executed == 0

"""``WorkloadInstance.columns`` against the per-object release fields.

Every column must equal the matching ``ReleasedJob`` field row by row,
and ``by_slot`` must be the permutation of a plain sort by
``(release_slot, task.name, index)`` -- the order ``releases_by_slot()``
promises -- both for a drawn workload and for one built from a release
list in any order (``WorkloadInstance.from_releases``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import TrialConfig, WorkloadInstance, prepare_workload
from repro.sim.rng import RandomSource
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet


@st.composite
def tasksets(draw):
    # Names in an order unrelated to the set's order, so the name rank
    # of a task differs from its position.
    names = draw(
        st.lists(
            st.text(alphabet="abcXYZ.0123", min_size=1, max_size=4),
            min_size=1, max_size=6, unique=True,
        )
    )
    tasks = []
    for name in names:
        period = draw(st.sampled_from([7, 10, 25, 40, 100]))
        tasks.append(
            IOTask(
                name=name,
                period=period,
                wcet=draw(st.integers(min_value=1, max_value=period)),
                offset=draw(st.integers(min_value=0, max_value=period)),
                vm_id=draw(st.integers(min_value=0, max_value=3)),
            )
        )
    return TaskSet(tasks)


def assert_columns_match(workload):
    columns = workload.columns
    releases = workload.releases
    position = {task.name: index for index, task in enumerate(workload.taskset)}
    for column in columns:
        assert column.dtype == np.int64
        assert column.shape == (len(releases),)
    assert columns.task.tolist() == [position[job.task.name] for job in releases]
    assert columns.index.tolist() == [job.index for job in releases]
    assert columns.release.tolist() == [job.release_slot for job in releases]
    assert columns.actual.tolist() == [job.actual_slots for job in releases]
    expected = sorted(
        range(len(releases)),
        key=lambda row: (
            releases[row].release_slot, releases[row].task.name, releases[row].index
        ),
    )
    assert columns.by_slot.tolist() == expected
    assert workload.releases_by_slot() == [releases[row] for row in expected]


@settings(max_examples=60, deadline=None)
@given(
    tasks=tasksets(),
    horizon=st.integers(min_value=1, max_value=400),
    jitter=st.sampled_from([0.0, 0.2, 0.9]),
    phases=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_prepared_workload_columns(tasks, horizon, jitter, phases, seed):
    config = TrialConfig(
        horizon_slots=horizon,
        release_jitter_fraction=jitter,
        randomize_phases=phases,
    )
    assert_columns_match(prepare_workload(tasks, config, RandomSource(seed, "wl"), 0.5))


@settings(max_examples=40, deadline=None)
@given(
    tasks=tasksets(),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_columns_of_releases_in_any_order(tasks, seed, data):
    """Columns follow ``releases`` as given, not the order
    ``prepare_workload`` happens to draw them in."""
    config = TrialConfig(horizon_slots=300, release_jitter_fraction=0.5)
    drawn = prepare_workload(tasks, config, RandomSource(seed, "wl"), 0.5)
    releases = data.draw(st.permutations(drawn.releases))
    shuffled = WorkloadInstance.from_releases(tasks, config, releases, 0.5)
    assert shuffled.releases == releases
    assert_columns_match(shuffled)


def test_empty_workload():
    tasks = TaskSet([IOTask(name="late", period=10, wcet=1, offset=50)])
    config = TrialConfig(horizon_slots=20, randomize_phases=False)
    workload = prepare_workload(tasks, config, RandomSource(1, "wl"))
    assert workload.releases == []
    assert_columns_match(workload)

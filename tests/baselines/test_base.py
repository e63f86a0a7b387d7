"""Unit tests for the shared trial machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import (
    TrialConfig,
    TrialResult,
    cycles_to_slots,
    prepare_workload,
    slots_ceil,
)
from repro.sim.rng import RandomSource
from repro.tasks.task import Criticality, IOTask
from repro.tasks.taskset import TaskSet


def small_taskset():
    return TaskSet([
        IOTask(name="a", period=100, wcet=10, vm_id=0),
        IOTask(name="b", period=250, wcet=20, vm_id=1),
    ])


class TestTrialConfig:
    def test_defaults_valid(self):
        config = TrialConfig()
        assert config.slot_seconds == pytest.approx(1e-5)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            TrialConfig(horizon_slots=0)

    def test_invalid_exec_fractions(self):
        with pytest.raises(ValueError):
            TrialConfig(exec_fraction_min=0.9, exec_fraction_max=0.5)
        with pytest.raises(ValueError):
            TrialConfig(exec_fraction_min=0.0)

    def test_invalid_jitter(self):
        with pytest.raises(ValueError):
            TrialConfig(release_jitter_fraction=1.0)


class TestPrepareWorkload:
    def test_release_counts(self):
        config = TrialConfig(
            horizon_slots=1000, randomize_phases=False,
            release_jitter_fraction=0.0,
        )
        workload = prepare_workload(small_taskset(), config, RandomSource(1))
        by_task = {}
        for release in workload.releases:
            by_task.setdefault(release.task.name, []).append(release)
        assert len(by_task["a"]) == 10
        assert len(by_task["b"]) == 4

    def test_deterministic_under_seed(self):
        config = TrialConfig(horizon_slots=2000)
        a = prepare_workload(small_taskset(), config, RandomSource(9, "w"))
        b = prepare_workload(small_taskset(), config, RandomSource(9, "w"))
        assert [(r.task.name, r.release_slot, r.actual_slots) for r in a.releases] == [
            (r.task.name, r.release_slot, r.actual_slots) for r in b.releases
        ]

    def test_actual_slots_within_fractions(self):
        config = TrialConfig(
            horizon_slots=5000, exec_fraction_min=0.5, exec_fraction_max=0.8
        )
        workload = prepare_workload(small_taskset(), config, RandomSource(2))
        for release in workload.releases:
            assert 1 <= release.actual_slots <= release.task.wcet
            assert release.actual_slots <= max(1, round(release.task.wcet * 0.8))

    def test_phases_randomized_by_default(self):
        config = TrialConfig(horizon_slots=2000)
        workload = prepare_workload(small_taskset(), config, RandomSource(3))
        first_releases = {
            release.task.name: release.release_slot
            for release in workload.releases
            if release.index == 0
        }
        # With random phases the two tasks almost surely differ from 0.
        assert any(slot != 0 for slot in first_releases.values())

    def test_separation_never_below_period(self):
        config = TrialConfig(horizon_slots=5000)
        workload = prepare_workload(small_taskset(), config, RandomSource(4))
        by_task = {}
        for release in sorted(workload.releases, key=lambda r: r.release_slot):
            by_task.setdefault(release.task.name, []).append(release)
        for name, releases in by_task.items():
            period = releases[0].task.period
            jitter_cap = int(period * config.release_jitter_fraction)
            for a, b in zip(releases, releases[1:]):
                assert b.release_slot - a.release_slot >= period - jitter_cap

    def test_releases_by_slot_sorted(self):
        config = TrialConfig(horizon_slots=3000)
        workload = prepare_workload(small_taskset(), config, RandomSource(5))
        ordered = workload.releases_by_slot()
        slots = [release.release_slot for release in ordered]
        assert slots == sorted(slots)


class TestHelpers:
    def test_cycles_to_slots(self):
        config = TrialConfig(cycles_per_slot=1000)
        assert cycles_to_slots(2500, config) == 2.5

    def test_slots_ceil_tolerates_fuzz(self):
        assert slots_ceil(3.0000000001) == 3
        assert slots_ceil(3.1) == 4


CRITICALITY_TASKS = [
    IOTask(name=f"{criticality.value}{index}", period=100, wcet=1,
           criticality=criticality, payload_bytes=64 * (index + 1))
    for index, criticality in enumerate(
        [Criticality.SYNTHETIC, Criticality.SAFETY, Criticality.FUNCTION,
         Criticality.SAFETY]
    )
]


def new_result():
    return TrialResult(
        system="s", target_utilization=0.5, horizon_slots=100, slot_seconds=1e-5
    )


class TestRecordBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        head=st.lists(st.integers(0, 3), max_size=3),
        jobs=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.booleans(),
                st.floats(min_value=0.0, max_value=1e7, allow_subnormal=False),
                st.booleans(),
            ),
            max_size=60,
        ),
    )
    def test_equals_one_record_per_job(self, head, jobs):
        """Per-criticality counts and their key order, bytes moved, the
        response sum to the last bit, the max and the samples all equal a
        per-job fold that starts from an already used result."""
        expected, actual = new_result(), new_result()
        for result in (expected, actual):
            for index in head:
                result.record(CRITICALITY_TASKS[index].criticality, True)
            result.response_slots_sum = 0.1
        for index, missed, response, transferred in jobs:
            task = CRITICALITY_TASKS[index]
            expected.record(task.criticality, missed)
            if transferred:
                expected.bytes_transferred += task.payload_bytes
            expected.response_slots_sum += response
            expected.response_slots_max = max(expected.response_slots_max, response)
            if task.criticality.counts_for_success:
                expected.record_response_sample(task.name, response)
        columns = list(zip(*jobs)) or [(), (), (), ()]
        actual.record_batch(
            CRITICALITY_TASKS,
            np.array(columns[0], dtype=np.int64),
            np.array(columns[1], dtype=bool),
            np.array(columns[2], dtype=np.float64),
            transferred=np.array(columns[3], dtype=bool),
            collect=True,
        )
        assert actual == expected
        assert list(actual.per_criticality) == list(expected.per_criticality)

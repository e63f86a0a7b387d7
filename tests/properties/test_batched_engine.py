"""Bit-identity of the packed (batched) analysis path against both engines.

The batch entry points (:mod:`repro.analysis.batched`) evaluate whole
columns of Theorem-1/2/4 requests per numpy pass -- hyper-period-tiled
event grids, one lock-step QPA descent, one flat failure sweep.  It is
a pure optimization: every lane of a batch must equal the scalar AND
vectorized per-pair result bit for bit (decision, horizon, slack,
witness triple, method).  These properties enforce that contract over
random batches, including the edges the batch strategy introduces:
ragged outlier lanes, lanes sharing one grid, hyper-period-compressed
(factorized) period draws, overloaded and zero-slack lanes, and the
``theta == pi`` full-bandwidth server.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import batched
from repro.analysis.batched import (
    BatchStats,
    gsched_schedulable_batch,
    lsched_schedulable_batch,
)
from repro.analysis.demand import dbf_signature_demand, demand_signature
from repro.analysis.gsched_test import gsched_schedulable
from repro.analysis.lsched_test import lsched_schedulable
from repro.core.timeslot import TimeSlotTable
from repro.tasks.generators import HyperperiodBasis
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet


@st.composite
def server_pairs(draw):
    pi = draw(st.integers(min_value=1, max_value=30))
    theta = draw(st.integers(min_value=1, max_value=pi))
    return pi, theta


@st.composite
def tasksets(draw, max_tasks=5, max_period=60):
    count = draw(st.integers(min_value=0, max_value=max_tasks))
    tasks = []
    for index in range(count):
        period = draw(st.integers(min_value=2, max_value=max_period))
        wcet = draw(st.integers(min_value=1, max_value=period))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        tasks.append(
            IOTask(name=f"b{index}", period=period, wcet=wcet, deadline=deadline)
        )
    return TaskSet(tasks, name="prop")


@st.composite
def factorized_tasksets(draw, max_tasks=5):
    """Task sets whose periods share the bounded factor basis -- the
    regime where the batch path's hyper-period tiling engages."""
    basis = HyperperiodBasis(factors=(2, 2, 3, 5), period_min=2)
    candidates = basis.candidate_periods()
    count = draw(st.integers(min_value=1, max_value=max_tasks))
    tasks = []
    for index in range(count):
        period = draw(st.sampled_from(candidates))
        wcet = draw(st.integers(min_value=1, max_value=period))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        tasks.append(
            IOTask(name=f"f{index}", period=period, wcet=wcet, deadline=deadline)
        )
    return TaskSet(tasks, name="factorized")


lsched_requests = st.lists(
    st.tuples(server_pairs(), tasksets()), min_size=0, max_size=6
)
factorized_requests = st.lists(
    st.tuples(server_pairs(), factorized_tasksets()), min_size=1, max_size=6
)
patterns = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=20)


def assert_lane_equal(result, reference, context):
    assert (
        result.schedulable,
        result.horizon,
        result.slack,
        result.failing_t,
        result.failing_demand,
        result.failing_supply,
        result.method,
        result.server,
        result.task_names,
    ) == (
        reference.schedulable,
        reference.horizon,
        reference.slack,
        reference.failing_t,
        reference.failing_demand,
        reference.failing_supply,
        reference.method,
        reference.server,
        reference.task_names,
    ), context


class TestLSchedBatchMatchesPerPair:
    @settings(max_examples=60, deadline=None)
    @given(lsched_requests)
    def test_random_batches(self, batch):
        requests = [(pi, theta, tasks) for (pi, theta), tasks in batch]
        results = lsched_schedulable_batch(requests)
        assert len(results) == len(requests)
        for lane, (result, (pi, theta, tasks)) in enumerate(
            zip(results, requests)
        ):
            for engine in ("scalar", "vectorized"):
                assert_lane_equal(
                    result,
                    lsched_schedulable(pi, theta, tasks, engine=engine),
                    (lane, engine),
                )

    @settings(max_examples=40, deadline=None)
    @given(factorized_requests)
    def test_hyperperiod_compressed_batches(self, batch):
        requests = [(pi, theta, tasks) for (pi, theta), tasks in batch]
        stats = BatchStats()
        results = lsched_schedulable_batch(requests, stats=stats)
        assert stats.lanes == len(requests)
        for lane, (result, (pi, theta, tasks)) in enumerate(
            zip(results, requests)
        ):
            assert_lane_equal(
                result, lsched_schedulable(pi, theta, tasks), lane
            )

    @settings(max_examples=30, deadline=None)
    @given(tasksets(), st.integers(min_value=1, max_value=30))
    def test_full_bandwidth_server(self, tasks, pi):
        requests = [(pi, pi, tasks)]
        (result,) = lsched_schedulable_batch(requests)
        assert_lane_equal(result, lsched_schedulable(pi, pi, tasks), "theta==pi")

    def test_failing_witness_is_a_true_counterexample(self):
        # Overloaded lane: batch must surface a demand > supply witness.
        tasks = TaskSet(
            [IOTask(name=f"o{i}", period=10, wcet=4) for i in range(3)],
            name="overload",
        )
        (result,) = lsched_schedulable_batch([(10, 7, tasks)])
        assert not result.schedulable
        signature = demand_signature(tasks)
        assert result.failing_demand == dbf_signature_demand(
            signature, result.failing_t
        )
        assert result.failing_demand > result.failing_supply


class TestRaggedAndSharedLanes:
    def test_ragged_outlier_falls_back(self, monkeypatch):
        """A lane whose grid dwarfs the batch median must take the
        per-pair fallback -- and still agree with the reference."""
        monkeypatch.setattr(batched, "RAGGED_FACTOR", 1)
        monkeypatch.setattr(batched, "RAGGED_POINTS_CAP", 4)
        small = TaskSet([IOTask(name="s", period=5, wcet=1)], name="small")
        big = TaskSet(
            [IOTask(name=f"g{i}", period=7 + 4 * i, wcet=1) for i in range(4)],
            name="big",
        )
        requests = [(20, 14, small), (20, 14, big), (20, 14, small)]
        stats = BatchStats()
        results = lsched_schedulable_batch(requests, stats=stats)
        assert stats.fallback_lanes >= 1
        for lane, (result, (pi, theta, tasks)) in enumerate(
            zip(results, requests)
        ):
            assert_lane_equal(
                result, lsched_schedulable(pi, theta, tasks), lane
            )

    def test_identical_lanes_share_one_grid(self):
        tasks = TaskSet(
            [IOTask(name="r", period=12, wcet=2, deadline=9)], name="shared"
        )
        stats = BatchStats()
        results = lsched_schedulable_batch(
            [(20, 14, tasks)] * 4, stats=stats
        )
        reference = lsched_schedulable(20, 14, tasks)
        for result in results:
            assert_lane_equal(result, reference, "shared")
        # Lanes that survive the probe share one (signature, bound) grid.
        if stats.grids_built:
            assert stats.grids_built + stats.grids_shared >= 4
            assert stats.grids_built == 1

    def test_per_pair_engine_degrade(self):
        tasks = TaskSet([IOTask(name="d", period=9, wcet=3)], name="degrade")
        for engine in ("scalar", "vectorized"):
            (result,) = lsched_schedulable_batch(
                [(10, 6, tasks)], engine=engine
            )
            assert_lane_equal(
                result, lsched_schedulable(10, 6, tasks, engine=engine), engine
            )


class TestGSchedBatchMatchesPerPair:
    @settings(max_examples=40, deadline=None)
    @given(
        patterns,
        st.lists(server_pairs(), min_size=0, max_size=3),
    )
    def test_random_batches(self, pattern, servers):
        table = TimeSlotTable.from_pattern(pattern)
        results = gsched_schedulable_batch([(table, servers)])
        reference = gsched_schedulable(table, servers)
        (result,) = results
        assert (
            result.schedulable,
            result.horizon,
            result.failing_t,
            result.failing_demand,
            result.failing_supply,
            result.method,
        ) == (
            reference.schedulable,
            reference.horizon,
            reference.failing_t,
            reference.failing_demand,
            reference.failing_supply,
            reference.method,
        )

    def test_mixed_batch(self):
        lanes = []
        for length in (6, 9, 12):
            table = TimeSlotTable(length, occupied=range(length // 3))
            lanes.append((table, [(4, 1), (6, 2)]))
        lanes.append((TimeSlotTable.empty(8), []))
        results = gsched_schedulable_batch(lanes)
        for (table, servers), result in zip(lanes, results):
            reference = gsched_schedulable(table, servers)
            assert result.schedulable == reference.schedulable
            assert result.failing_t == reference.failing_t


class TestGridBuilders:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(tasksets(max_tasks=4), st.integers(-5, 4000)),
            min_size=0,
            max_size=5,
        )
    )
    def test_fused_builder_matches_per_entry(self, cases):
        entries = [
            (demand_signature(tasks), horizon) for tasks, horizon in cases
        ]
        fused = batched._taskset_grid_demand_many(entries)
        for entry, built in zip(entries, fused):
            points, demand = batched._taskset_grid_demand(*entry)
            assert np.array_equal(points, built[0])
            assert np.array_equal(demand, built[1])

    @settings(max_examples=40, deadline=None)
    @given(tasksets(max_tasks=4), st.integers(0, 4000))
    def test_grid_demand_matches_scalar_dbf(self, tasks, horizon):
        signature = demand_signature(tasks)
        points, demand = batched._taskset_grid_demand(signature, horizon)
        assert points.size == np.unique(points).size
        for t, d in zip(points.tolist(), demand.tolist()):
            assert t <= horizon
            assert d == dbf_signature_demand(signature, t)

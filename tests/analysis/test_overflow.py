"""int64 overflow-safety regressions for the numpy kernels.

Theorem-4 horizons are exact integers and blow past ``2**63`` whenever
the slack is a hair above zero; before the ``INT64_SAFE_HORIZON`` caps
the batched preamble died with an opaque ``int too big to convert``
at lane-fill time (or, worse, ``start + k*period`` grids wrapped
silently).  These tests pin the contract: every kernel that builds an
int64 grid raises a clean ``OverflowError`` past the cap, and the batch
entry point routes such lanes to the per-pair test instead of raising
at all.  The scalar reference cannot serve as the comparison here: it
walks every step point of the astronomical window.
"""

import numpy as np
import pytest

from repro.analysis.batched import (
    BatchStats,
    _qpa_taskset_windows,
    _tiled,
    _tiled_grid_demand,
    lsched_schedulable_batch,
)
from repro.analysis.demand import demand_signature
from repro.analysis.engine import INT64_SAFE_HORIZON
from repro.analysis.lsched_test import lsched_schedulable
from repro.analysis.vectorized import server_points_in_range, step_points_in_range
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet

OVER_CAP = INT64_SAFE_HORIZON + 1


def near_zero_slack_taskset():
    """One task whose Theorem-4 window exceeds the int64-safe cap.

    Server (10, 5) gives slack ``1/2 - C/T``; with ``C = T // 2`` and an
    odd ``T`` around ``10**18`` the slack is ``1/(2T)`` and the window
    is ``~28T``, far past ``2**60``.
    """
    period = 10**18 + 1
    return TaskSet(
        [IOTask(name="t0", period=period, wcet=period // 2, deadline=period)]
    )


class TestKernelCaps:
    def test_cap_leaves_product_headroom(self):
        # 8x headroom below 2**63: start + k*period stays representable
        assert INT64_SAFE_HORIZON * 8 <= 2**63

    def test_step_points_raises_past_cap(self):
        with pytest.raises(OverflowError, match="int64-safe cap"):
            step_points_in_range([(5, 10)], 0, OVER_CAP)

    def test_step_points_fine_below_cap(self):
        points = step_points_in_range([(5, 10)], 0, 35)
        assert points.tolist() == [5, 15, 25, 35]

    def test_server_points_raises_past_cap(self):
        with pytest.raises(OverflowError, match="int64-safe cap"):
            server_points_in_range([10], 0, OVER_CAP)

    def test_tiled_raises_past_cap(self):
        base = np.array([0, 5], dtype=np.int64)
        with pytest.raises(OverflowError, match="int64-safe cap"):
            _tiled(base, 10, OVER_CAP)

    def test_tiled_grid_demand_raises_past_cap(self):
        points = np.array([0, 5], dtype=np.int64)
        demand = np.array([0, 1], dtype=np.int64)
        with pytest.raises(OverflowError, match="int64-safe cap"):
            _tiled_grid_demand(points, demand, 10, 1, OVER_CAP)

    def test_qpa_windows_raises_past_cap(self):
        tasks = TaskSet([IOTask(name="t0", period=10, wcet=1, deadline=10)])
        entry = (demand_signature(tasks), 10, 5, OVER_CAP)
        with pytest.raises(OverflowError, match="int64-safe cap"):
            _qpa_taskset_windows([entry])


class TestBatchFallback:
    """The batch preamble must not raise -- it reroutes oversized lanes."""

    def test_oversized_lane_routed_to_per_pair_engine(self):
        tasks = near_zero_slack_taskset()
        stats = BatchStats()
        (result,) = lsched_schedulable_batch([(10, 5, tasks)], stats=stats)
        assert stats.fallback_lanes == 1
        assert result == lsched_schedulable(10, 5, tasks)

    def test_mixed_batch_stays_bit_identical(self):
        normal = TaskSet(
            [IOTask(name="n0", period=20, wcet=1, deadline=20)]
        )
        requests = [
            (10, 5, normal),
            (10, 5, near_zero_slack_taskset()),
            (10, 5, normal),
        ]
        stats = BatchStats()
        batch = lsched_schedulable_batch(requests, stats=stats)
        reference = [lsched_schedulable(pi, theta, ts) for pi, theta, ts in requests]
        assert batch == reference
        assert stats.fallback_lanes == 1

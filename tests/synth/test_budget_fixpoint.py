"""Pinned lanes for the fixpoint budget search.

:func:`~repro.analysis.servers.minimum_budgets_batched` settles most
lanes with its per-point kernel and sends the rest -- zero slack at the
candidate, a Theorem-4 horizon past the int64-safe cap, a grid over the
point cap -- through one Theorem-4 probe per round.  Each example below
pins one of those routes (and the edge lanes: ``theta == pi``,
constrained deadlines, an empty task set) against a linear scan of
``theta`` under the scalar reference and under the production Theorem-4
test (the ``scalar``/``vectorized`` parameters), and checks that the
route was really taken.
"""

import pytest

from repro.analysis import servers
from repro.analysis.engine import INT64_SAFE_HORIZON
from repro.analysis.lsched_test import (
    lsched_schedulable,
    lsched_schedulable_reference,
    theorem4_bound,
)
from repro.analysis.servers import (
    BudgetSearchStats,
    minimum_budgets_batched,
    utilization_budget_floor,
)
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet

HUGE_PERIOD = 1 << 62

#: The Theorem-4 test the linear scan grades the search with.
ORACLES = pytest.mark.parametrize(
    "oracle",
    [lsched_schedulable_reference, lsched_schedulable],
    ids=["scalar", "vectorized"],
)


def linear_scan(pi, tasks, oracle):
    """The least ``theta`` in ``[floor, pi]`` passing, by trying each."""
    if len(tasks) == 0:
        return 1
    for theta in range(utilization_budget_floor(pi, tasks), pi + 1):
        if oracle(pi, theta, tasks).schedulable:
            return theta
    return None


@pytest.fixture
def probes(monkeypatch):
    """Record every ``(pi, theta)`` the search sends to a Theorem-4 probe."""
    seen = []
    batch = servers.lsched_schedulable_batch

    def recording(requests, **kwargs):
        seen.extend((pi, theta) for pi, theta, _tasks in requests)
        return batch(requests, **kwargs)

    monkeypatch.setattr(servers, "lsched_schedulable_batch", recording)
    return seen


def search(pi, tasks):
    stats = BudgetSearchStats()
    (theta,) = minimum_budgets_batched([(pi, tasks)], stats=stats)
    return theta, stats


@ORACLES
class TestProbeRoutes:
    def test_zero_slack_at_a_lower_bound_that_passes(self, oracle, probes):
        # U = 1 at pi = 1: the start is the floor, slack is zero, and
        # Theorem 3 accepts it.
        tasks = TaskSet([IOTask("a", period=1, wcet=1)])
        theta, stats = search(1, tasks)
        assert theta == linear_scan(1, tasks, oracle) == 1
        assert probes == [(1, 1)]
        assert stats.rounds == stats.oracle_calls == 1

    def test_zero_slack_at_a_lower_bound_that_fails(self, oracle, probes):
        # The kernel lowers the candidate to the floor 1 = U * pi, where
        # slack is zero; Theorem 3 rejects it, and the failing point
        # lifts the lane to 2.
        tasks = TaskSet([IOTask("a", period=4, wcet=2)])
        theta, _stats = search(2, tasks)
        assert theta == linear_scan(2, tasks, oracle) == 2
        assert probes == [(2, 1)]

    def test_horizon_over_the_int64_safe_cap(self, oracle, probes):
        # A laxity gap near 2**62 puts every candidate's Theorem-4
        # horizon past the cap, so each round is a probe: the pass at
        # pi (not a lower bound) restarts at the floor, the failure there
        # lifts the lane by the failing point's budget.
        tasks = TaskSet(
            [
                IOTask("a", period=HUGE_PERIOD, wcet=1, deadline=10),
                IOTask("b", period=HUGE_PERIOD, wcet=2, deadline=6),
            ]
        )
        assert theorem4_bound(4, 4, tasks) > INT64_SAFE_HORIZON
        theta, stats = search(4, tasks)
        assert theta == linear_scan(4, tasks, oracle) == 2
        assert probes == [(4, 4), (4, 1), (4, 2)]
        assert stats.rounds == stats.oracle_calls == 3

    def test_failing_point_past_int64(self, oracle, probes):
        # The kernel lowers the harmonic cap 3 to the floor 2, whose
        # slack of 1/2**64 sends the lane to a probe; the probe fails at
        # t = 2**64 with demand 2**63 - 1, so the lifted budget must be
        # found without int64 arrays.  The kernel then confirms 3.
        tasks = TaskSet([IOTask("a", period=1 << 64, wcet=(1 << 63) - 1)])
        theta, stats = search(4, tasks)
        assert theta == linear_scan(4, tasks, oracle) == 3
        assert probes == [(4, 2)]
        assert stats.rounds == stats.oracle_calls == 3
        failure = oracle(4, 2, tasks)
        assert failure.failing_t is not None
        assert failure.failing_t >= 1 << 63
        assert failure.failing_demand is not None
        assert failure.failing_demand >= 1 << 62

    def test_grid_over_the_point_cap(self, oracle, probes, monkeypatch):
        tasks = TaskSet(
            [
                IOTask("a", period=20, wcet=3, deadline=12),
                IOTask("b", period=30, wcet=5),
            ]
        )
        kernel_theta, kernel_stats = search(10, tasks)
        assert probes == []
        monkeypatch.setattr(servers, "RAGGED_POINTS_CAP", 2)
        theta, stats = search(10, tasks)
        assert theta == kernel_theta == linear_scan(10, tasks, oracle)
        # Every candidate whose grid passes the cap went to a probe.
        assert probes and all(pi == 10 for pi, _theta in probes)
        assert stats.oracle_calls >= kernel_stats.oracle_calls


@ORACLES
class TestEdgeLanes:
    def test_budget_equal_to_the_period(self, oracle, probes):
        # A deadline of 2 under pi = 10 leaves no room for any blackout.
        tasks = TaskSet([IOTask("a", period=100, wcet=2, deadline=2)])
        theta, _stats = search(10, tasks)
        assert theta == linear_scan(10, tasks, oracle) == 10
        assert probes == []

    def test_period_that_fails_even_at_full_budget(self, oracle):
        # Demand 3 at t = 2 exceeds even the full budget's supply of 2.
        tasks = TaskSet(
            [
                IOTask("a", period=100, wcet=2, deadline=2),
                IOTask("b", period=100, wcet=1, deadline=2),
            ]
        )
        assert search(10, tasks)[0] is None
        assert linear_scan(10, tasks, oracle) is None

    def test_constrained_deadlines(self, oracle, probes):
        tasks = TaskSet(
            [
                IOTask("a", period=30, wcet=4, deadline=25),
                IOTask("b", period=50, wcet=6, deadline=41),
                IOTask("c", period=70, wcet=3, deadline=20),
            ]
        )
        for pi in range(1, 21):
            assert search(pi, tasks)[0] == linear_scan(pi, tasks, oracle)
        assert probes == []

    def test_empty_task_set(self, oracle):
        theta, stats = search(10, TaskSet())
        assert theta == linear_scan(10, TaskSet(), oracle) == 1
        assert stats.rounds == stats.oracle_calls == 0

"""The one budget search against the scalar Theorem-4 reference.

:func:`~repro.analysis.servers.minimum_budgets_batched` is the only
minimum-budget search: the seed designer, the synthesis grid and
:func:`~repro.analysis.servers.minimum_budget` all run through it.  These
properties pin what it returns, lane by lane, against the scalar
reference :func:`~repro.analysis.lsched_test.lsched_schedulable_reference`:

* a returned ``theta`` passes and ``theta - 1`` fails (or ``theta`` is
  the utilization floor, below which the search never probes);
* a lane is ``None`` exactly when the full-bandwidth budget
  ``theta = pi`` fails;
* the closed-form harmonic budget, when it exists, passes and is never
  below the searched minimum;
* incumbent pruning only turns lanes whose floor bandwidth already
  meets the bound into ``None``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.lsched_test import lsched_schedulable_reference
from repro.analysis.servers import (
    BudgetSearchStats,
    harmonic_fast_budget,
    minimum_budgets_batched,
    utilization_budget_floor,
)
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet

#: The harmonic set of ``tests/synth/test_servers.py::TestHarmonicFastBudget``.
HARMONIC = TaskSet(
    [
        IOTask("a", period=8, wcet=1),
        IOTask("b", period=16, wcet=2),
        IOTask("c", period=32, wcet=2),
    ],
    name="harmonic",
)


@st.composite
def constrained_tasksets(draw, max_tasks=4, max_period=48):
    count = draw(st.integers(min_value=0, max_value=max_tasks))
    tasks = []
    for index in range(count):
        period = draw(st.integers(min_value=2, max_value=max_period))
        wcet = draw(st.integers(min_value=1, max_value=max(1, period // 3)))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        tasks.append(IOTask(name=f"c{index}", period=period, wcet=wcet, deadline=deadline))
    return TaskSet(tasks, name="constrained")


@st.composite
def harmonic_tasksets(draw, max_tasks=4):
    """Implicit-deadline sets whose periods form a harmonic chain."""
    period = draw(st.integers(min_value=2, max_value=12))
    tasks = []
    for index in range(draw(st.integers(min_value=1, max_value=max_tasks))):
        wcet = draw(st.integers(min_value=1, max_value=max(1, period // 4)))
        tasks.append(IOTask(name=f"h{index}", period=period, wcet=wcet))
        period *= draw(st.sampled_from((1, 2, 3)))
    return TaskSet(tasks, name="harmonic")


@st.composite
def lanes(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    result = []
    for _ in range(count):
        pi = draw(st.integers(min_value=1, max_value=24))
        tasks = draw(st.one_of(constrained_tasksets(), harmonic_tasksets()))
        result.append((pi, tasks))
    return result


def passes(pi, theta, tasks):
    return lsched_schedulable_reference(pi, theta, tasks).schedulable


class TestOneBudgetSearch:
    @settings(max_examples=150, deadline=None)
    @given(candidates=lanes())
    @example(candidates=[(pi, HARMONIC) for pi in (2, 4, 5, 8, 10, 16)])
    def test_minimal_sufficient_and_none_exactly_when_cap_fails(self, candidates):
        budgets = minimum_budgets_batched(candidates)
        assert len(budgets) == len(candidates)
        for (pi, tasks), theta in zip(candidates, budgets):
            if len(tasks) == 0:
                assert theta == 1
                continue
            assert (theta is None) == (not passes(pi, pi, tasks))
            fast = harmonic_fast_budget(pi, tasks)
            if theta is None:
                assert fast is None
                continue
            assert 1 <= theta <= pi
            assert passes(pi, theta, tasks)
            assert theta == utilization_budget_floor(pi, tasks) or not passes(
                pi, theta - 1, tasks
            )
            if fast is not None:
                assert passes(pi, fast, tasks)
                assert fast >= theta

    @settings(max_examples=80, deadline=None)
    @given(
        candidates=lanes(),
        bound=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_pruning_only_drops_lanes_at_or_above_the_bound(self, candidates, bound):
        unpruned = minimum_budgets_batched(candidates)
        stats = BudgetSearchStats()
        pruned = minimum_budgets_batched(
            candidates,
            bandwidth_bounds=[bound] * len(candidates),
            stats=stats,
        )
        dropped = 0
        for (pi, tasks), full, theta in zip(candidates, unpruned, pruned):
            floor = utilization_budget_floor(pi, tasks)
            if len(tasks) and floor <= pi and floor / pi >= bound:
                assert theta is None
                dropped += 1
            else:
                assert theta == full
        assert stats.pruned == dropped
        assert stats.fast_path == sum(
            harmonic_fast_budget(pi, tasks) is not None for pi, tasks in candidates
        )

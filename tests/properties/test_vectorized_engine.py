"""Bit-identity of the numpy analysis kernels and the incremental
admission path against the scalar reference implementations.

The numpy kernels (:mod:`repro.analysis.vectorized`) and the
incremental admission curve (:mod:`repro.core.admission`) are pure
optimizations: every value and every verdict must equal the scalar
ground truth exactly.  These properties enforce that contract over
random tasksets/tables, including the edges called out in the kernels'
docstring: empty tasksets, full-bandwidth servers (``theta == pi``) and
horizon caps below/above all step points.
"""

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import linear_test, lsched_test
from repro.analysis import gsched_test
from repro.analysis import vectorized as vec
from repro.analysis.demand import (
    dbf_server,
    dbf_signature_demand,
    dbf_step_points,
    demand_signature,
    server_step_points,
)
from repro.analysis.supply import (
    linear_supply_lower_bound,
    sbf_server,
    sbf_server_inverse,
    sbf_sigma,
)
from repro.core.timeslot import TimeSlotTable
from repro.tasks.task import IOTask
from repro.tasks.taskset import TaskSet

patterns = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=24)


@st.composite
def server_pairs(draw):
    pi = draw(st.integers(min_value=1, max_value=30))
    theta = draw(st.integers(min_value=1, max_value=pi))
    return pi, theta


@st.composite
def tasksets(draw, max_tasks=5):
    count = draw(st.integers(min_value=0, max_value=max_tasks))
    tasks = []
    for index in range(count):
        period = draw(st.integers(min_value=2, max_value=60))
        wcet = draw(st.integers(min_value=1, max_value=period))
        deadline = draw(st.integers(min_value=wcet, max_value=period))
        tasks.append(
            IOTask(name=f"h{index}", period=period, wcet=wcet, deadline=deadline)
        )
    return TaskSet(tasks, name="prop")


@contextmanager
def forced_vectorization():
    """Route every window, however small, through the vectorized path.

    The production cutoff (``VECTORIZE_MIN_POINTS``) sends small grids
    to the plain loop purely for speed; disabling it here makes the
    property actually exercise the numpy/QPA code on the small systems
    hypothesis favours.
    """
    modules = (lsched_test, gsched_test, linear_test)
    saved = [module.VECTORIZE_MIN_POINTS for module in modules]
    try:
        for module in modules:
            module.VECTORIZE_MIN_POINTS = 0
        yield
    finally:
        for module, value in zip(modules, saved):
            module.VECTORIZE_MIN_POINTS = value


class TestKernelsMatchScalar:
    @given(tasksets(), st.integers(min_value=0, max_value=400))
    def test_dbf_taskset_at(self, tasks, horizon):
        signature = demand_signature(tasks)
        ts = np.arange(0, horizon + 1, dtype=np.int64)
        got = vec.dbf_taskset_at(signature, ts)
        expected = [dbf_signature_demand(signature, int(t)) for t in ts]
        assert got.tolist() == expected

    @given(st.lists(server_pairs(), max_size=4),
           st.integers(min_value=0, max_value=300))
    def test_dbf_servers_at(self, servers, horizon):
        ts = np.arange(0, horizon + 1, dtype=np.int64)
        got = vec.dbf_servers_at(servers, ts)
        expected = [
            sum(dbf_server(pi, theta, int(t)) for pi, theta in servers)
            for t in ts
        ]
        assert got.tolist() == expected

    @given(server_pairs(), st.integers(min_value=0, max_value=300))
    def test_sbf_server_at(self, server, horizon):
        pi, theta = server
        ts = np.arange(0, horizon + 1, dtype=np.int64)
        got = vec.sbf_server_at(pi, theta, ts)
        expected = [sbf_server(pi, theta, int(t)) for t in ts]
        assert got.tolist() == expected

    @given(patterns, st.integers(min_value=0, max_value=300))
    def test_sbf_sigma_at(self, pattern, horizon):
        table = TimeSlotTable.from_pattern(pattern)
        ts = np.arange(0, horizon + 1, dtype=np.int64)
        got = vec.sbf_sigma_at(table, ts)
        expected = [sbf_sigma(table, int(t)) for t in ts]
        assert got.tolist() == expected

    @given(server_pairs(), st.integers(min_value=0, max_value=300))
    def test_linear_supply_at(self, server, horizon):
        pi, theta = server
        ts = np.arange(0, horizon + 1, dtype=np.int64)
        got = vec.linear_supply_at(pi, theta, ts)
        expected = [linear_supply_lower_bound(pi, theta, int(t)) for t in ts]
        assert got.tolist() == expected

    @given(tasksets(), st.integers(min_value=0, max_value=500))
    def test_taskset_step_points(self, tasks, horizon):
        signature = demand_signature(tasks)
        got = vec.taskset_step_points(vec.step_pairs(signature), horizon)
        assert got.tolist() == dbf_step_points(tasks, horizon)

    @given(st.lists(server_pairs(), max_size=4),
           st.integers(min_value=0, max_value=500))
    def test_server_step_points(self, servers, horizon):
        periods = [pi for pi, _theta in servers]
        got = vec._dedup_sorted(
            np.sort(vec.server_points_in_range(periods, 0, horizon))
        )
        assert got.tolist() == server_step_points(servers, horizon)

    @given(server_pairs(), st.integers(min_value=1, max_value=2000))
    def test_sbf_server_inverse_minimal(self, server, demand):
        pi, theta = server
        t = sbf_server_inverse(pi, theta, demand)
        assert sbf_server(pi, theta, t) >= demand
        assert t == 0 or sbf_server(pi, theta, t - 1) < demand


class TestResultsMatchScalar:
    @settings(max_examples=60)
    @given(tasksets(), server_pairs())
    def test_lsched(self, tasks, server):
        pi, theta = server
        reference = lsched_test.lsched_schedulable_reference(pi, theta, tasks)
        with forced_vectorization():
            fast = lsched_test.lsched_schedulable(pi, theta, tasks)
        assert reference == fast

    @settings(max_examples=60)
    @given(tasksets(), server_pairs())
    def test_linear(self, tasks, server):
        pi, theta = server
        reference = linear_test.lsched_schedulable_linear_reference(pi, theta, tasks)
        with forced_vectorization():
            fast = linear_test.lsched_schedulable_linear(pi, theta, tasks)
        assert reference == fast

    @settings(max_examples=60)
    @given(patterns, st.lists(server_pairs(), max_size=3))
    def test_gsched(self, pattern, servers):
        table = TimeSlotTable.from_pattern(pattern)
        reference = gsched_test.gsched_schedulable_reference(table, servers)
        with forced_vectorization():
            fast = gsched_test.gsched_schedulable(table, servers)
        assert reference == fast

    @settings(max_examples=30)
    @given(tasksets(max_tasks=3), st.integers(min_value=1, max_value=12))
    def test_lsched_exact_horizon_cap_edges(self, tasks, pi):
        """Theorem-3 windows (lcm-based horizons): numpy path vs loop."""
        theta = pi  # full-bandwidth server: zero blackout edge case
        reference = lsched_test.lsched_schedulable_exact_reference(pi, theta, tasks)
        with forced_vectorization():
            fast = lsched_test.lsched_schedulable_exact(pi, theta, tasks)
        assert reference == fast


class TestIncrementalAdmissionMatchesFullRetest:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),   # vm
                st.integers(min_value=5, max_value=120),  # period
                st.integers(min_value=1, max_value=20),   # wcet seed
                st.integers(min_value=0, max_value=100),  # deadline seed
                st.booleans(),                            # withdraw op
            ),
            max_size=12,
        )
    )
    def test_random_admit_withdraw_sequences(self, steps):
        from repro.core.admission import AdmissionController
        from repro.core.gsched import ServerSpec

        def build(incremental):
            return AdmissionController(
                TimeSlotTable.empty(20),
                [ServerSpec(0, 10, 5), ServerSpec(1, 10, 4)],
                incremental=incremental,
            )

        incremental, full = build(True), build(False)
        admitted = {0: [], 1: []}
        for index, (vm, period, wcet_seed, dl_seed, is_withdraw) in enumerate(
            steps
        ):
            if is_withdraw and admitted[vm]:
                name = admitted[vm].pop(dl_seed % len(admitted[vm]))
                assert incremental.withdraw(vm, name).name == name
                assert full.withdraw(vm, name).name == name
                continue
            wcet = 1 + wcet_seed % period
            deadline = wcet + dl_seed % (period - wcet + 1)
            task = IOTask(
                name=f"t{index}", period=period, wcet=wcet,
                deadline=deadline, vm_id=vm,
            )
            fast = incremental.try_admit(task)
            slow = full.try_admit(task)
            assert fast == slow
            assert fast.test_result == slow.test_result
            if fast.schedulable:
                admitted[vm].append(task.name)
        for vm in (0, 1):
            assert (
                [t.name for t in incremental.admitted_tasks(vm)]
                == [t.name for t in full.admitted_tasks(vm)]
            )

"""``analyze`` returns synthesis's verified verdicts while they still hold.

A system whose servers :func:`build_system` synthesized carries the
Theorem-2/Theorem-4 results the synthesis verified.  ``analyze`` (and
``analyze_many``) reuse them instead of proving both theorems again,
so the reused report must equal a recomputed one field by field, and
any change that could move a verdict -- an admission, a withdrawal,
an edit of the task set or of a task in it, new servers -- must
recompute, and ``engine="scalar"`` always runs the scalar references.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import (
    IOTask,
    ServerConfig,
    ServerSpec,
    SystemConfig,
    TaskKind,
    admit,
    analyze,
    analyze_many,
    build_system,
    withdraw,
)


def demo_config(**overrides):
    defaults = dict(
        name="reuse-demo",
        table_pattern=[1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        tasks=[
            IOTask(name="steer", period=100, wcet=8, vm_id=0),
            IOTask(name="park", period=200, wcet=20, vm_id=0),
            IOTask(name="media", period=250, wcet=25, vm_id=1),
            IOTask(name="nav", period=500, wcet=30, vm_id=1),
        ],
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def seed_fallback_config():
    # F/H = 1/2 and both VMs need about 0.3: no assignment passes
    # Theorem 2, so the verified seed design is the (failed) result.
    return SystemConfig(
        name="seed-fallback",
        table_pattern=[1, 0] * 5,
        tasks=[
            IOTask(name=f"t{vm}", period=40, wcet=12, vm_id=vm) for vm in (0, 1)
        ],
    )


def design_failure_config():
    # VM 0 is overloaded (U = 1.2): synthesis fails before its final
    # verification and holds no results.
    return SystemConfig(
        name="design-failure",
        table_pattern=[1] + [0] * 9,
        tasks=[
            IOTask(name="hog", period=10, wcet=9, vm_id=0),
            IOTask(name="hog2", period=10, wcet=3, vm_id=0),
            IOTask(name="a", period=40, wcet=2, deadline=30, vm_id=1),
        ],
        servers=[ServerConfig(vm_id=1, pi=10, theta=None)],
    )


@st.composite
def open_server_configs(draw):
    """Up to three VMs with 1-4 run-time tasks each, 0-2 pre-defined
    tasks packed into sigma*, and servers omitted, or a mix of pinned
    periods, fully pinned servers and open VMs."""
    tasks = []
    servers = []
    for vm_id in range(draw(st.integers(min_value=1, max_value=3))):
        for index in range(draw(st.integers(min_value=1, max_value=4))):
            period = draw(st.sampled_from((20, 40, 50, 100, 200)))
            tasks.append(
                IOTask(
                    name=f"vm{vm_id}.t{index}",
                    period=period,
                    wcet=draw(st.integers(min_value=1, max_value=period // 6)),
                    vm_id=vm_id,
                )
            )
        pin = draw(st.sampled_from(("none", "period", "full")))
        pi = draw(st.sampled_from((5, 10, 20)))
        if pin == "period":
            servers.append(ServerConfig(vm_id, pi=pi))
        elif pin == "full":
            theta = draw(st.integers(min_value=1, max_value=pi // 3))
            servers.append(ServerConfig(vm_id, pi=pi, theta=theta))
    for index in range(draw(st.integers(min_value=0, max_value=2))):
        tasks.append(
            IOTask(
                name=f"spi{index}",
                period=40,
                wcet=draw(st.integers(min_value=1, max_value=3)),
                kind=TaskKind.PREDEFINED,
                device="spi0",
            )
        )
    partly_pinned = servers if any(e.theta is None for e in servers) else None
    return SystemConfig(
        name="generated",
        tasks=tasks,
        servers=draw(st.sampled_from((None, partly_pinned))),
    )


def assert_same_report(reused, recomputed):
    assert reused.schedulable == recomputed.schedulable
    assert reused.reason == recomputed.reason
    assert reused.failing_t == recomputed.failing_t
    assert reused.global_result == recomputed.global_result
    assert list(reused.local_results) == list(recomputed.local_results)
    for vm_id, result in recomputed.local_results.items():
        assert reused.local_results[vm_id] == result


def check_against_scalar(config):
    system = build_system(config)
    assert system.synthesis is not None
    reused = analyze(system)
    assert_same_report(reused, analyze(system, engine="scalar"))
    [batched] = analyze_many([system])
    assert_same_report(batched, reused)


class TestReusedEqualsRecomputed:
    @settings(max_examples=30, deadline=None)
    @given(config=open_server_configs())
    def test_generated_configs(self, config):
        check_against_scalar(config)

    def test_demo_config(self):
        check_against_scalar(demo_config())

    def test_design_failure(self):
        assert build_system(design_failure_config()).design.failures
        check_against_scalar(design_failure_config())

    def test_seed_fallback(self):
        assert -1 in build_system(seed_fallback_config()).design.failures
        check_against_scalar(seed_fallback_config())

    def test_analyze_many_mixes_reused_and_recomputed(self):
        fresh = build_system(demo_config())
        admitted = build_system(demo_config())
        assert admit(admitted, IOTask(name="extra", period=400, wcet=4, vm_id=1))
        reports = analyze_many([fresh, admitted])
        for system, report in zip((fresh, admitted), reports):
            assert_same_report(report, analyze(system, engine="scalar"))


@pytest.fixture
def lsched_calls(monkeypatch):
    """Count the Theorem-4 tests ``analyze`` runs itself."""
    calls = []
    original = api.lsched_schedulable

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(api, "lsched_schedulable", counting)
    return calls


class TestWhenAnalysisRecomputes:
    def test_fresh_design_is_reused(self, lsched_calls):
        system = build_system(demo_config())
        assert analyze(system)
        assert lsched_calls == []

    def test_after_admit(self, lsched_calls):
        system = build_system(demo_config())
        assert admit(system, IOTask(name="extra", period=400, wcet=4, vm_id=1))
        report = analyze(system)
        assert len(lsched_calls) == len(system.servers)
        assert report.local_results[1].task_names[-1] == "extra"

    def test_after_withdraw(self, lsched_calls):
        system = build_system(demo_config())
        withdraw(system, 0, "park")
        report = analyze(system)
        assert len(lsched_calls) == len(system.servers)
        assert "park" not in report.local_results[0].task_names

    def test_after_servers_replaced(self, lsched_calls):
        system = build_system(demo_config())
        first = system.servers[0]
        system.servers = [ServerSpec(first.vm_id, first.pi, first.pi)] + list(
            system.servers[1:]
        )
        report = analyze(system)
        assert len(lsched_calls) == len(system.servers)
        assert report.local_results[first.vm_id].server == (first.pi, first.pi)

    def test_equal_servers_in_a_new_list_are_reused(self, lsched_calls):
        system = build_system(demo_config())
        system.servers = [
            ServerSpec(spec.vm_id, spec.pi, spec.theta) for spec in system.servers
        ]
        analyze(system)
        assert lsched_calls == []

    def test_after_a_task_is_added_to_the_set(self, lsched_calls):
        system = build_system(demo_config())
        system.tasks.add(IOTask(name="hog", period=10, wcet=9, vm_id=0))
        report = analyze(system)
        assert len(lsched_calls) == len(system.servers)
        assert not report.schedulable
        assert_same_report(report, analyze(system, engine="scalar"))

    def test_after_a_task_is_edited_in_place(self, lsched_calls):
        system = build_system(demo_config())
        system.tasks["park"].wcet = 180
        report = analyze(system)
        assert len(lsched_calls) == len(system.servers)
        assert not report.schedulable
        assert_same_report(report, analyze(system, engine="scalar"))

    def test_under_another_engine(self, lsched_calls, monkeypatch):
        """``engine="scalar"`` runs the references even on a fresh
        design whose verdicts ``analyze`` would otherwise reuse."""
        reference_calls = []
        for name in ("gsched_schedulable_reference", "lsched_schedulable_reference"):
            original = getattr(api, name)

            def counting(*args, _name=name, _original=original):
                reference_calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(api, name, counting)
        system = build_system(demo_config())
        report = analyze(system, engine="scalar")
        assert lsched_calls == []
        assert sorted(reference_calls) == ["gsched_schedulable_reference"] + [
            "lsched_schedulable_reference"
        ] * len(system.servers)
        assert_same_report(report, analyze(system))

    def test_design_failure_without_results_recomputes(self, lsched_calls):
        system = build_system(design_failure_config())
        assert system.synthesis.global_result is None
        assert not analyze(system)
        assert len(lsched_calls) == len(system.servers)

    def test_verified_seed_fallback_is_reused(self, lsched_calls):
        system = build_system(seed_fallback_config())
        report = analyze(system)
        assert not report.schedulable
        assert report.reason == system.synthesis.reason
        assert lsched_calls == []


class TestNoAliasing:
    def test_mutating_the_report_leaves_synthesis_unchanged(self):
        system = build_system(demo_config())
        expected = dict(system.synthesis.local_results)
        report = analyze(system)
        assert report.local_results is not system.synthesis.local_results
        report.local_results.clear()
        assert system.synthesis.local_results == expected
        assert analyze(system).local_results == expected

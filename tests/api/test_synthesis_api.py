"""The redesigned api surface: optional servers, synthesize(), ServerConfig.

Covers the api_redesign contract end to end:

* ``SystemConfig.servers`` fully optional -- omitted or ``theta=None``
  entries route through :mod:`repro.synth` and land a
  :class:`SynthesisReport` on ``System.synthesis``;
* ``repro.api.synthesize`` round-trips with ``build_system``;
* ``ServerConfig`` takes ``pi``/``theta`` by keyword only;
* ``ConfigurationError`` names the conflicting device/slot pair for
  infeasible hand-written tables, and the VM when every server is
  pinned and a VM with run-time tasks has none;
* the ``ReportBase`` extraction changes neither reprs nor behavior of
  the existing report classes.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AnalysisReport,
    ConfigurationError,
    IOTask,
    ReportBase,
    SchedulabilityResult,
    ServerConfig,
    SynthesisReport,
    SystemConfig,
    TableConstraint,
    TaskKind,
    TaskSet,
    admit,
    analyze,
    build_system,
    lsched_schedulable,
    synthesize,
)


def runtime_tasks():
    return [
        IOTask(name="steer", period=100, wcet=8, vm_id=0),
        IOTask(name="park", period=200, wcet=20, vm_id=0),
        IOTask(name="media", period=250, wcet=25, vm_id=1),
        IOTask(name="nav", period=500, wcet=30, vm_id=1),
    ]


def demo_config(**overrides):
    defaults = dict(
        name="synth-demo",
        table_pattern=[1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        tasks=runtime_tasks(),
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


class TestOptionalServers:
    def test_omitted_servers_synthesized(self):
        system = build_system(demo_config())
        assert system.synthesis is not None
        assert system.synthesis.schedulable
        assert system.design is not None
        assert sorted(spec.vm_id for spec in system.servers) == [0, 1]
        assert analyze(system)

    def test_theta_none_pins_period_only(self):
        system = build_system(
            demo_config(
                servers=[
                    ServerConfig(0, pi=10),
                    ServerConfig(1, pi=10, theta=4),
                ]
            )
        )
        assert system.synthesis is not None
        spec0 = system.server_for(0)
        assert spec0.pi == 10
        assert spec0.theta >= 1
        assert (system.server_for(1).pi, system.server_for(1).theta) == (10, 4)

    def test_pinned_period_survives_failed_synthesis(self):
        # VM 0 is overloaded (U = 1.2), so synthesis fails and the servers
        # fall back to the seed design, which must honour VM 1's pin.
        task = IOTask(name="a", period=40, wcet=2, deadline=30, vm_id=1)
        system = build_system(
            SystemConfig(
                name="pin-fallback",
                table_pattern=[1] + [0] * 9,
                tasks=[
                    IOTask(name="hog", period=10, wcet=9, vm_id=0),
                    IOTask(name="hog2", period=10, wcet=3, vm_id=0),
                    task,
                ],
                servers=[ServerConfig(vm_id=1, pi=10, theta=None)],
            )
        )
        assert system.synthesis is not None
        assert not system.synthesis.schedulable
        assert [(spec.vm_id, spec.pi) for spec in system.servers] == [(1, 10)]
        theta = system.server_for(1).theta
        assert lsched_schedulable(10, theta, TaskSet([task])).schedulable

    def test_fully_specified_servers_skip_synthesis(self):
        system = build_system(
            demo_config(
                servers=[
                    ServerConfig(0, pi=20, theta=8),
                    ServerConfig(1, pi=20, theta=6),
                ]
            )
        )
        assert system.synthesis is None
        assert system.design is None

    def test_no_runtime_vms_and_no_servers_stays_empty(self):
        system = build_system(
            SystemConfig(
                name="empty",
                tasks=[
                    IOTask(
                        name="poll",
                        period=10,
                        wcet=1,
                        vm_id=0,
                        kind=TaskKind.PREDEFINED,
                        device="spi0",
                    )
                ],
            )
        )
        assert system.servers == []
        assert system.synthesis is None

    def test_synthesized_admits_same_workload_as_explicit(self):
        # The round-trip claim: a system built without servers admits
        # exactly what the hand-configured one admits.
        synthesized = build_system(demo_config())
        explicit = build_system(
            demo_config(
                servers=[
                    ServerConfig(0, pi=20, theta=8),
                    ServerConfig(1, pi=20, theta=6),
                ]
            )
        )
        probe = IOTask(name="extra", period=400, wcet=1, vm_id=0)
        assert (
            admit(synthesized, probe).schedulable
            == admit(explicit, probe).schedulable
        )


@st.composite
def partly_pinned_configs(draw):
    """Up to three VMs, each with 0-2 run-time tasks and no server
    entry, a pinned period or a fully pinned server."""
    tasks = []
    servers = []
    for vm_id in range(3):
        for index in range(draw(st.integers(min_value=0, max_value=2))):
            period = draw(st.sampled_from((20, 40, 50, 100)))
            tasks.append(
                IOTask(
                    name=f"vm{vm_id}.t{index}",
                    period=period,
                    wcet=draw(st.integers(min_value=1, max_value=period // 8)),
                    vm_id=vm_id,
                )
            )
        pin = draw(st.sampled_from(("none", "period", "full")))
        pi = draw(st.sampled_from((5, 10, 20)))
        if pin == "period":
            servers.append(ServerConfig(vm_id, pi=pi))
        elif pin == "full":
            servers.append(
                ServerConfig(
                    vm_id, pi=pi, theta=draw(st.integers(min_value=1, max_value=pi // 4))
                )
            )
    return demo_config(
        name="partly-pinned",
        tasks=tasks,
        servers=draw(st.sampled_from((servers, None))) if servers else None,
    )


class TestEveryRuntimeVmChecked:
    def test_fully_pinned_config_without_a_vms_server_is_rejected(self):
        config = SystemConfig(
            tasks=[
                IOTask(name="ok", period=50, wcet=1, vm_id=0),
                IOTask(name="hog", period=50, wcet=49, vm_id=1),
            ],
            servers=[ServerConfig(0, pi=10, theta=2)],
        )
        with pytest.raises(ConfigurationError, match=r"VM\(s\) \[1\]"):
            build_system(config)

    @settings(max_examples=40, deadline=None)
    @given(config=partly_pinned_configs())
    def test_build_raises_or_analysis_covers_every_runtime_vm(self, config):
        runtime_vms = {task.vm_id for task in config.tasks}
        try:
            system = build_system(config)
        except ConfigurationError as error:
            assert config.servers is not None
            assert all(entry.theta is not None for entry in config.servers)
            unserved = sorted(runtime_vms - {e.vm_id for e in config.servers})
            assert unserved and str(unserved) in str(error)
            return
        report = analyze(system)
        failures = system.design.failures if system.design else {}
        for vm_id in sorted(runtime_vms):
            # A VM the synthesis could not dimension has no server to
            # test; it is named in the design failures, which make the
            # report unschedulable.
            assert vm_id in report.local_results or (
                vm_id in failures and not report.schedulable
            )


class TestSynthesizeFacade:
    def test_round_trips_with_build_system(self):
        report = synthesize(demo_config())
        system = build_system(demo_config())
        assert report.schedulable
        assert [
            (s.vm_id, s.pi, s.theta) for s in report.servers
        ] == [(s.vm_id, s.pi, s.theta) for s in system.servers]

    def test_is_schedulability_result(self):
        report = synthesize(demo_config())
        assert isinstance(report, SynthesisReport)
        assert isinstance(report, SchedulabilityResult)
        assert bool(report)
        assert report.failing_t is None

    def test_beats_hand_written_baseline(self):
        report = synthesize(demo_config())
        assert report.bandwidth <= 8 / 20 + 6 / 20

    def test_nothing_to_synthesize(self):
        report = synthesize(SystemConfig(name="void", tasks=[]))
        assert report.schedulable
        assert report.servers == []
        assert "nothing to synthesize" in report.reason

    def test_table_constraints_route_through_table_synthesis(self):
        config = SystemConfig(
            name="chain",
            tasks=[
                IOTask(
                    name="sense",
                    period=20,
                    wcet=2,
                    deadline=10,
                    vm_id=0,
                    kind=TaskKind.PREDEFINED,
                    device="lidar",
                ),
                IOTask(
                    name="act",
                    period=20,
                    wcet=1,
                    vm_id=0,
                    kind=TaskKind.PREDEFINED,
                    device="canbus",
                ),
                IOTask(name="ctl", period=100, wcet=5, vm_id=0),
            ],
            table_constraints=[
                TableConstraint("sense", "act", min_lag=2, max_lag=12)
            ],
        )
        report = synthesize(config)
        assert report.schedulable
        assert build_system(config).table.occupancy_pattern() == (
            report.table.occupancy_pattern()
        )


class TestPositionalDeprecation:
    """The positional ``ServerConfig`` form is removed, not deprecated."""

    def test_keyword_form_is_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ServerConfig(0, pi=20, theta=8)
        assert [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ] == []

    def test_positional_and_keyword_conflict_rejected(self):
        for args, kwargs in (((0, 20, 8), {}), ((0, 20), {"pi": 30})):
            with pytest.raises(TypeError, match="positional"):
                ServerConfig(*args, **kwargs)

    def test_pi_required(self):
        with pytest.raises(TypeError, match="pi"):
            ServerConfig(0)


class TestConfigurationErrorNamesConflict:
    def test_infeasible_pinned_table_names_device_and_slot(self):
        config = SystemConfig(
            name="bad-table",
            stagger=False,
            table_pattern=[1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            tasks=[
                IOTask(
                    name="sense",
                    period=10,
                    wcet=2,
                    deadline=5,
                    vm_id=0,
                    kind=TaskKind.PREDEFINED,
                    device="lidar",
                )
            ],
        )
        with pytest.raises(ConfigurationError) as excinfo:
            build_system(config)
        error = excinfo.value
        assert error.device == "lidar"
        assert error.slot == 0
        assert "lidar" in str(error)
        assert "sense" in str(error)

    def test_pattern_must_tile_predefined_periods(self):
        config = SystemConfig(
            name="bad-tile",
            table_pattern=[1, 0, 0, 0, 0, 0, 0],
            tasks=[
                IOTask(
                    name="poll",
                    period=10,
                    wcet=1,
                    vm_id=0,
                    kind=TaskKind.PREDEFINED,
                    device="spi0",
                )
            ],
        )
        with pytest.raises(ConfigurationError, match="multiple"):
            build_system(config)

    def test_feasible_pinned_table_accepted(self):
        config = SystemConfig(
            name="ok-table",
            stagger=False,
            table_pattern=[1, 1, 0, 0, 0, 1, 0, 0, 0, 0],
            tasks=[
                IOTask(
                    name="sense",
                    period=10,
                    wcet=2,
                    deadline=5,
                    vm_id=0,
                    kind=TaskKind.PREDEFINED,
                    device="lidar",
                )
            ],
        )
        assert build_system(config).table.total_slots == 10


class TestReportBaseShim:
    def test_analysis_report_repr_unchanged(self):
        system = build_system(
            demo_config(
                servers=[
                    ServerConfig(0, pi=20, theta=8),
                    ServerConfig(1, pi=20, theta=6),
                ]
            )
        )
        report = analyze(system)
        text = repr(report)
        # Dataclass-generated repr: ReportBase must not leak into it.
        assert text.startswith("AnalysisReport(")
        assert "ReportBase" not in text

    def test_reports_share_the_base(self):
        system = build_system(demo_config())
        report = analyze(system)
        assert isinstance(report, ReportBase)
        assert isinstance(system.synthesis, ReportBase)
        assert isinstance(report, AnalysisReport)

    def test_bool_and_failing_t_behavior_preserved(self):
        system = build_system(
            demo_config(
                servers=[
                    ServerConfig(0, pi=20, theta=8),
                    ServerConfig(1, pi=20, theta=6),
                ]
            )
        )
        report = analyze(system)
        assert bool(report) is report.schedulable
        if report.schedulable:
            assert report.failing_t is None

    def test_failing_report_surfaces_witness(self):
        config = SystemConfig(
            name="overload",
            table_pattern=[1, 0],
            servers=[ServerConfig(0, pi=10, theta=1)],
            tasks=[IOTask(name="hog", period=10, wcet=8, vm_id=0)],
        )
        report = analyze(build_system(config))
        assert not report
        assert report.failing_t is not None
        assert isinstance(report.summary(), str)

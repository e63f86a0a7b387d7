"""Tests for the ``repro.api`` facade."""

import ast
from pathlib import Path

import pytest

from repro.api import (
    AnalysisReport,
    IOTask,
    SchedulabilityResult,
    ServerConfig,
    SystemConfig,
    TaskKind,
    admit,
    analyze,
    analyze_many,
    build_system,
    simulate,
    withdraw,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
#: Examples ported onto the facade; they must not import any other
#: repro submodule.
PORTED_EXAMPLES = (
    "quickstart.py",
    "schedulability_analysis.py",
    "admission_control.py",
)


def sample_tasks():
    return [
        IOTask(
            name="poll", period=50, wcet=4, vm_id=0,
            kind=TaskKind.PREDEFINED, device="spi0", payload_bytes=16,
        ),
        IOTask(
            name="cmd", period=80, wcet=6, vm_id=0,
            kind=TaskKind.RUNTIME, device="spi0", payload_bytes=32,
        ),
        IOTask(
            name="telemetry", period=120, wcet=10, vm_id=1,
            kind=TaskKind.RUNTIME, device="spi0", payload_bytes=64,
        ),
    ]


class TestBuildSystem:
    def test_auto_design(self):
        system = build_system(SystemConfig(tasks=sample_tasks()))
        assert system.design is not None
        assert sorted(system.vm_ids) == [0, 1]
        assert system.table.total_slots > 0

    def test_pinned_servers_and_table(self):
        system = build_system(
            SystemConfig(
                table_pattern=[1, 0, 0, 0],
                servers=[ServerConfig(0, pi=10, theta=5)],
            )
        )
        assert system.design is None
        assert system.table.total_slots == 4
        spec = system.server_for(0)
        assert (spec.pi, spec.theta) == (10, 5)
        with pytest.raises(KeyError):
            system.server_for(7)


class TestAnalyze:
    def test_schedulable_system(self):
        system = build_system(SystemConfig(tasks=sample_tasks()))
        report = analyze(system)
        assert isinstance(report, AnalysisReport)
        assert isinstance(report, SchedulabilityResult)
        assert report.schedulable
        assert bool(report)
        assert report.failing_t is None
        assert "schedulable" in report.summary()
        assert sorted(report.local_results) == [0, 1]

    def test_unschedulable_reports_witness(self):
        system = build_system(
            SystemConfig(
                tasks=[
                    IOTask(name="heavy", period=20, wcet=15, vm_id=0,
                           kind=TaskKind.RUNTIME),
                ],
                table_pattern=[0] * 10,
                servers=[ServerConfig(0, pi=20, theta=10)],
            )
        )
        report = analyze(system)
        assert not report.schedulable
        assert report.failing_t is not None
        assert not report.local_results[0].schedulable

    def test_engine_override_is_bit_identical(self):
        system = build_system(SystemConfig(tasks=sample_tasks()))
        scalar = analyze(system, engine="scalar")
        fast = analyze(system, engine="vectorized")
        assert scalar.schedulable == fast.schedulable
        assert scalar.global_result == fast.global_result
        assert scalar.local_results == fast.local_results


class TestAnalyzeMany:
    def systems(self):
        mixed = [
            build_system(SystemConfig(tasks=sample_tasks())),
            build_system(
                SystemConfig(
                    tasks=[
                        IOTask(name="heavy", period=20, wcet=15, vm_id=0,
                               kind=TaskKind.RUNTIME),
                    ],
                    table_pattern=[0] * 10,
                    servers=[ServerConfig(0, pi=20, theta=10)],
                )
            ),
            build_system(
                SystemConfig(
                    table_pattern=[1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
                    servers=[ServerConfig(0, pi=20, theta=8), ServerConfig(1, pi=20, theta=6)],
                )
            ),
        ]
        return mixed

    def test_empty_batch(self):
        assert analyze_many([]) == []

    def test_batched_matches_per_system_analyze(self):
        systems = self.systems()
        reports = analyze_many(systems)
        assert len(reports) == len(systems)
        for system, report in zip(systems, reports):
            reference = analyze(system)
            assert report.schedulable == reference.schedulable
            assert report.global_result == reference.global_result
            assert report.local_results == reference.local_results

    def test_every_engine_matches_per_system_analyze(self):
        systems = self.systems()
        for engine in ("scalar", "vectorized"):
            reports = analyze_many(systems, engine=engine)
            for system, report in zip(systems, reports):
                reference = analyze(system, engine=engine)
                assert report.schedulable == reference.schedulable
                assert report.local_results == reference.local_results

    def test_mixed_verdicts_keep_order(self):
        reports = analyze_many(self.systems())
        assert [r.schedulable for r in reports] == [True, False, True]


class TestAdmitAndSimulate:
    def system(self):
        return build_system(
            SystemConfig(
                table_pattern=[1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
                servers=[ServerConfig(0, pi=20, theta=8), ServerConfig(1, pi=20, theta=6)],
            )
        )

    def test_admit_updates_population(self):
        system = self.system()
        decision = admit(system, IOTask(name="a", period=100, wcet=8, vm_id=0))
        assert decision.schedulable
        population = system.runtime_population()
        assert "a" in population[0]
        rejected = admit(
            system, IOTask(name="b", period=150, wcet=45, vm_id=0)
        )
        assert not rejected.schedulable
        assert rejected.failing_t is not None

    def test_withdraw_frees_demand(self):
        system = self.system()
        assert admit(system, IOTask(name="a", period=100, wcet=30, vm_id=0))
        heavy = IOTask(name="b", period=100, wcet=30, vm_id=0)
        assert not admit(system, heavy).schedulable
        assert withdraw(system, 0, "a").name == "a"
        assert admit(system, heavy).schedulable

    def test_baseline_runtime_tasks_seed_controller(self):
        system = build_system(SystemConfig(tasks=sample_tasks()))
        decision = admit(
            system, IOTask(name="extra", period=400, wcet=1, vm_id=0)
        )
        assert decision.schedulable
        population = system.runtime_population()
        assert "cmd" in population[0]
        assert "extra" in population[0]

    def test_simulate_schedulable_system_has_no_misses(self):
        system = build_system(SystemConfig(tasks=sample_tasks()))
        assert analyze(system).schedulable
        run = simulate(system, horizon=1_000)
        assert run.completed > 0
        assert run.deadline_misses == 0
        assert bool(run)
        assert "0 deadline misses" in run.summary()

    def test_simulate_covers_admitted_tasks(self):
        system = self.system()
        admit(system, IOTask(name="a", period=100, wcet=8, vm_id=0))
        run = simulate(system, horizon=500)
        assert run.completed >= 5  # five releases of "a"

    def test_simulate_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            simulate(self.system(), horizon=-1)


class TestExamplesImportOnlyTheFacade:
    @pytest.mark.parametrize("filename", PORTED_EXAMPLES)
    def test_example_imports(self, filename):
        tree = ast.parse((EXAMPLES / filename).read_text())
        repro_imports = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                repro_imports.update(
                    alias.name for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "repro":
                    repro_imports.add(node.module)
        assert repro_imports == {"repro.api"}, (
            f"{filename} must import only repro.api, got {sorted(repro_imports)}"
        )

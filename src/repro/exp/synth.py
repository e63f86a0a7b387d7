"""Synthesis sweep: designs the analysis layer verifies.

``python -m repro.exp synth`` runs a pinned set of synthesis scenarios
-- the hand-configured example workloads plus a harmonic fast-path case
and a precedence-constrained table case -- through
:func:`repro.api.synthesize`, one cell per scenario, and asserts the
redesign contract:

* **feasible**: every synthesized design passes its Theorem-2 and
  Theorem-4 verification, re-checked here with the scalar reference
  tests (the oracle the search used is not trusted to grade its own
  homework);
* **no worse than the integrator**: ``sum Theta/Pi`` is at or below the
  hand-written example baseline where one exists, and at or below the
  policy designer's seed everywhere;
* **deterministic**: the canonical payload is byte-identical across
  reruns and ``--jobs`` worker counts.

Search effort (oracle calls, pruned nodes) is reported per scenario;
call counts are host-independent, so the tests pin them exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.gsched_test import gsched_schedulable_reference
from repro.analysis.lsched_test import lsched_schedulable_reference
from repro.exp.reporting import render_table
from repro.exp.runner import ExperimentRunner
from repro.tasks.task import IOTask, TaskKind


def _admission_control_config():
    """The ``examples/admission_control.py`` workload, servers left open.

    The example hand-writes ``(Pi=20, Theta=8)`` + ``(Pi=20, Theta=6)``
    (bandwidth 0.7) for the workload its admission sequence admits;
    synthesis must match or beat that.
    """
    from repro.api import SystemConfig

    return SystemConfig(
        name="admission-control",
        table_pattern=[1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        tasks=[
            IOTask(name="steering_assist", period=100, wcet=8, vm_id=0),
            IOTask(name="park_sensors", period=200, wcet=20, vm_id=0),
            IOTask(name="media_stream", period=250, wcet=25, vm_id=1),
            IOTask(name="nav_updates", period=500, wcet=30, vm_id=1),
        ],
    )


def _quickstart_config():
    """The ``examples/quickstart.py`` workload (auto-designed servers)."""
    from repro.api import SystemConfig

    return SystemConfig(
        name="quickstart",
        tasks=[
            IOTask(
                name="sensor_poll",
                period=50,
                wcet=4,
                vm_id=0,
                kind=TaskKind.PREDEFINED,
                device="spi0",
            ),
            IOTask(name="vm0_command", period=80, wcet=6, vm_id=0),
            IOTask(name="vm1_telemetry", period=120, wcet=10, vm_id=1),
            IOTask(name="vm1_logging", period=200, wcet=12, vm_id=1),
        ],
    )


def _harmonic_config():
    """Harmonic implicit-deadline VMs: the closed-form fast-path regime."""
    from repro.api import SystemConfig

    return SystemConfig(
        name="harmonic",
        table_pattern=[1, 0, 0, 0, 0, 0, 0, 0],
        tasks=[
            IOTask(name="h0_fast", period=8, wcet=1, vm_id=0),
            IOTask(name="h0_mid", period=16, wcet=2, vm_id=0),
            IOTask(name="h0_slow", period=32, wcet=2, vm_id=0),
            IOTask(name="h1_fast", period=16, wcet=1, vm_id=1),
            IOTask(name="h1_slow", period=64, wcet=6, vm_id=1),
        ],
    )


def _constrained_table_config():
    """Slot-table synthesis under a sense->act time-lag constraint."""
    from repro.api import SystemConfig, TableConstraint

    return SystemConfig(
        name="constrained-table",
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
            IOTask(name="control_loop", period=100, wcet=5, vm_id=0),
        ],
        table_constraints=[
            TableConstraint("sense", "act", min_lag=2, max_lag=12)
        ],
    )


#: Pinned sweep: (scenario name, config builder, hand-written baseline
#: bandwidth or None).  ``None`` gates against the policy designer's
#: seed instead (recorded in every report as ``seed_bandwidth``).
#: Immutable on purpose: worker processes read it (IOL009).
SYNTH_SCENARIOS: Tuple[Tuple[str, object, Optional[float]], ...] = (
    ("admission-control", _admission_control_config, 8 / 20 + 6 / 20),
    ("quickstart", _quickstart_config, None),
    ("harmonic", _harmonic_config, None),
    ("constrained-table", _constrained_table_config, None),
)


def scenario_names() -> Tuple[str, ...]:
    return tuple(name for name, _builder, _baseline in SYNTH_SCENARIOS)


def _scenario(name: str) -> Tuple[object, Optional[float]]:
    for scenario, builder, baseline in SYNTH_SCENARIOS:
        if scenario == name:
            return builder, baseline
    raise KeyError(f"unknown synthesis scenario {name!r}")


@dataclass(frozen=True)
class SynthCell:
    """One scenario's synthesis run."""

    scenario: str


@dataclass
class SynthCellResult:
    """Picklable outcome of one cell (no numpy state crosses workers)."""

    scenario: str
    schedulable: bool
    scalar_verified: bool
    bandwidth: float
    seed_bandwidth: Optional[float]
    baseline_bandwidth: Optional[float]
    hyperperiod: int
    servers: List[Tuple[int, int, int]]
    oracle_calls: int
    pruned_nodes: int
    nodes_expanded: int
    fast_path_vms: int
    improved: bool
    payload_digest: str

    @property
    def bandwidth_ok(self) -> bool:
        """``sum Theta/Pi`` at or below every applicable baseline."""
        limits = [
            limit
            for limit in (self.baseline_bandwidth, self.seed_bandwidth)
            if limit is not None
        ]
        return all(self.bandwidth <= limit + 1e-12 for limit in limits)


def run_synth_cell(cell: SynthCell) -> SynthCellResult:
    """Synthesize one scenario and independently re-verify it.

    The scalar re-check below is the differential half of the contract:
    the searched design must pass the *reference* Theorem-2 and
    Theorem-4 tests, not just the numpy oracle that steered the search.
    """
    from repro.api import synthesize

    builder, baseline = _scenario(cell.scenario)
    config = builder()
    report = synthesize(config)

    scalar_verified = bool(report.schedulable)
    if report.schedulable:
        from repro.tasks.taskset import TaskSet

        by_vm = TaskSet(list(config.tasks), name=config.name).runtime().by_vm()
        pairs = report.server_pairs()
        if pairs:
            scalar_verified &= gsched_schedulable_reference(
                report.table, pairs
            ).schedulable
        for spec in report.servers:
            tasks = by_vm.get(spec.vm_id)
            if tasks is None:
                continue
            scalar_verified &= lsched_schedulable_reference(
                spec.pi, spec.theta, tasks
            ).schedulable

    digest = json.dumps(report.to_payload(), sort_keys=True)
    return SynthCellResult(
        scenario=cell.scenario,
        schedulable=report.schedulable,
        scalar_verified=scalar_verified,
        bandwidth=report.bandwidth,
        seed_bandwidth=report.seed_bandwidth,
        baseline_bandwidth=baseline,
        hyperperiod=report.table.total_slots,
        servers=[
            (spec.vm_id, spec.pi, spec.theta) for spec in report.servers
        ],
        oracle_calls=report.stats.oracle_calls,
        pruned_nodes=report.stats.pruned_nodes,
        nodes_expanded=report.stats.nodes_expanded,
        fast_path_vms=report.fast_path_vms,
        improved=report.improved,
        payload_digest=digest,
    )


@dataclass
class SynthSweepResult:
    """Every cell of the sweep plus the invariants CI asserts on."""

    cells: List[SynthCellResult]

    def for_scenario(self, scenario: str) -> List[SynthCellResult]:
        return [cell for cell in self.cells if cell.scenario == scenario]

    @property
    def all_feasible(self) -> bool:
        return all(cell.schedulable for cell in self.cells)

    @property
    def all_scalar_verified(self) -> bool:
        return all(cell.scalar_verified for cell in self.cells)

    @property
    def all_bandwidth_ok(self) -> bool:
        return all(cell.bandwidth_ok for cell in self.cells)

    @property
    def total_oracle_calls(self) -> int:
        """Search effort of the whole sweep."""
        return sum(cell.oracle_calls for cell in self.cells)

    @property
    def ok(self) -> bool:
        return (
            self.all_feasible
            and self.all_scalar_verified
            and self.all_bandwidth_ok
        )


def run_synth_sweep(
    *, runner: Optional[ExperimentRunner] = None
) -> SynthSweepResult:
    """The pinned sweep: one cell per scenario."""
    runner = runner if runner is not None else ExperimentRunner(1)
    cells = [SynthCell(scenario=scenario) for scenario in scenario_names()]
    results = runner.map(run_synth_cell, cells, label="synth")
    return SynthSweepResult(cells=results)


def render_synth_sweep(result: SynthSweepResult) -> str:
    """Deterministic rendering (no timing: stdout is byte-compared)."""
    rows = []
    for scenario in scenario_names():
        cell = result.for_scenario(scenario)[0]
        baseline = (
            cell.baseline_bandwidth
            if cell.baseline_bandwidth is not None
            else cell.seed_bandwidth
        )
        rows.append(
            (
                scenario,
                cell.hyperperiod,
                len(cell.servers),
                cell.bandwidth,
                baseline if baseline is not None else "-",
                cell.oracle_calls,
                cell.pruned_nodes,
                cell.fast_path_vms,
                "yes" if cell.scalar_verified else "NO",
            )
        )
    table = render_table(
        [
            "scenario",
            "H",
            "servers",
            "bandwidth",
            "baseline",
            "oracle",
            "pruned",
            "fastpath",
            "verified",
        ],
        rows,
        title=f"Bandwidth-minimal synthesis ({len(result.cells)} scenarios)",
    )
    lines = [table, ""]
    lines.append(
        "scalar re-verification: "
        + ("pass" if result.all_scalar_verified else "FAIL")
    )
    lines.append(
        "bandwidth at or below baselines: "
        + ("yes" if result.all_bandwidth_ok else "NO - REGRESSION")
    )
    return "\n".join(lines)


"""Single entry point for building, analyzing and running I/O-GUARD
systems.

The library's power users import from six submodules (``repro.tasks``,
``repro.core``, ``repro.analysis``, ``repro.hw``, ...).  This facade
packages the common workflow behind four verbs and two typed configs::

    from repro.api import SystemConfig, build_system, analyze, admit, simulate

    system = build_system(SystemConfig(tasks=[...]))
    report = analyze(system)          # Theorems 2 + 4, auto-designed servers
    decision = admit(system, task)    # online Theorem-4 admission
    run = simulate(system, horizon=2_000)

Every verdict (``analyze``'s :class:`AnalysisReport`, ``admit``'s
:class:`~repro.core.admission.AdmissionDecision`, the per-layer
G-Sched/L-Sched results reachable from them) satisfies the
:class:`~repro.analysis.result.SchedulabilityResult` protocol:
``schedulable``/``__bool__`` for the verdict, ``failing_t`` for the
witness, ``summary()`` for a rendering.

The commonly needed building blocks (:class:`~repro.tasks.task.IOTask`,
:class:`~repro.tasks.taskset.TaskSet`,
:class:`~repro.core.timeslot.TimeSlotTable`, the dbf/sbf kernels) are
re-exported here so example code and downstream scripts need exactly
one import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.batched import (
    gsched_schedulable_batch,
    lsched_schedulable_batch,
)
from repro.analysis.demand import dbf_server, dbf_sporadic, dbf_taskset
from repro.analysis.engine import INT64_SAFE_HORIZON
from repro.analysis.gsched_test import (
    GSchedResult,
    gsched_schedulable,
    gsched_schedulable_exact,
    gsched_schedulable_reference,
    theorem2_bound,
)
from repro.analysis.lsched_test import (
    LSchedResult,
    lsched_schedulable,
    lsched_schedulable_exact,
    lsched_schedulable_reference,
    theorem4_bound,
)
from repro.analysis.result import ReportBase, SchedulabilityResult
from repro.analysis.servers import (
    ServerDesign,
    bandwidth_of,
    design_servers,
    minimum_budget,
)
from repro.analysis.supply import sbf_server, sbf_sigma
from repro.chains.analysis import ChainBound, HopBound, analyze_chain_set
from repro.chains.generators import (
    ChainWorkload,
    ChainWorkloadConfig,
    generate_chain_workload,
)
from repro.chains.model import CauseEffectChain, validate_chains
from repro.chains.simulate import ChainSimulationReport, simulate_chains
from repro.core.admission import (
    AdmissionController,
    AdmissionDecision,
    ConfigurationError,
    ControllerSnapshot,
)
from repro.core.gsched import ServerSpec
from repro.core.hypervisor import HypervisorConfig, IOGuardHypervisor
from repro.core.timeslot import (
    TableConstraint,
    TableOverflowError,
    TimeSlotTable,
    build_pchannel_table,
    stagger_offsets,
)
from repro.core.driver import VirtualizationDriver
from repro.hw import (
    CANController,
    EchoDevice,
    EthernetController,
    FlexRayController,
    GPIOController,
    I2CController,
    IOController,
    SPIController,
    UARTController,
)
from repro.sim.trace import TraceRecorder
from repro.synth.report import SynthesisReport
from repro.synth.servers import ServerSearchOutcome, synthesize_servers
from repro.tasks.generators import generate_random_taskset
from repro.tasks.task import Criticality, IOTask, Job, TaskKind
from repro.tasks.taskset import TaskSet

__all__ = [
    # facade verbs + configs
    "SystemConfig",
    "ServerConfig",
    "System",
    "build_system",
    "analyze",
    "analyze_many",
    "admit",
    "withdraw",
    "simulate",
    "AnalysisReport",
    "SimulationReport",
    # synthesis
    "synthesize",
    "SynthesisReport",
    "ServerSearchOutcome",
    "synthesize_servers",
    "TableConstraint",
    # cause-effect chains
    "ChainConfig",
    "ChainWorkload",
    "ChainWorkloadConfig",
    "CauseEffectChain",
    "ChainBound",
    "HopBound",
    "ChainAnalysisReport",
    "ChainSimulationReport",
    "build_chain_system",
    "generate_chain_workload",
    "validate_chains",
    "analyze_chains",
    "simulate_chains",
    # verdict protocol + concrete results
    "SchedulabilityResult",
    "ReportBase",
    "AdmissionDecision",
    "ConfigurationError",
    "ControllerSnapshot",
    "GSchedResult",
    "LSchedResult",
    # building blocks
    "IOTask",
    "Job",
    "TaskKind",
    "Criticality",
    "TaskSet",
    "TimeSlotTable",
    "TableOverflowError",
    "ServerSpec",
    "AdmissionController",
    "generate_random_taskset",
    # analysis kernels and tests
    "dbf_sporadic",
    "dbf_taskset",
    "dbf_server",
    "sbf_sigma",
    "sbf_server",
    "gsched_schedulable",
    "gsched_schedulable_exact",
    "gsched_schedulable_reference",
    "lsched_schedulable",
    "lsched_schedulable_exact",
    "lsched_schedulable_reference",
    "theorem2_bound",
    "theorem4_bound",
    "minimum_budget",
    "design_servers",
    "ServerDesign",
]


@dataclass(init=False)
class ServerConfig:
    """One VM's periodic server ``Gamma = (Pi, Theta)``.

    ``theta=None`` pins the period but leaves the budget to the
    synthesis layer: :func:`build_system` computes the minimum
    Theorem-4 budget for the pinned ``pi``.  Omitting the whole
    ``servers`` block synthesizes both parameters (see
    :func:`synthesize`).

    ``pi`` and ``theta`` are keyword-only -- ``ServerConfig(0, pi=20,
    theta=8)`` -- because with ``theta`` optional a positional field
    order would invite silently swapped arguments.
    """

    vm_id: int
    pi: int
    theta: Optional[int]

    def __init__(
        self,
        vm_id: int,
        *,
        pi: Optional[int] = None,
        theta: Optional[int] = None,
    ) -> None:
        if pi is None:
            raise TypeError("ServerConfig requires pi (the server period)")
        self.vm_id = vm_id
        self.pi = pi
        self.theta = theta


@dataclass
class SystemConfig:
    """Everything needed to instantiate an I/O-GUARD system.

    Only ``tasks`` is required.  Servers are dimensioned automatically
    (minimum-budget design embedding the Theorem-2 global test) unless
    ``servers`` pins them; the time slot table is packed from the
    pre-defined tasks unless ``table_pattern`` pins it.
    """

    tasks: Sequence[IOTask] = ()
    name: str = "system"
    #: Explicit per-VM servers; ``None`` synthesizes a
    #: bandwidth-minimal design (:mod:`repro.synth`), recorded on
    #: ``System.synthesis``.  Entries with ``theta=None`` pin the
    #: period and synthesize the budget.
    servers: Optional[Sequence[ServerConfig]] = None
    #: Explicit P-channel slot pattern (1 = busy); ``None`` packs the
    #: pre-defined tasks into a table.  Pinned patterns are validated
    #: against the pre-defined jobs (:class:`ConfigurationError` names
    #: the conflicting device/slot pair when hosting is impossible).
    table_pattern: Optional[Sequence[int]] = None
    #: Precedence/time-lag constraints between pre-defined tasks, which
    #: the table builder (:func:`repro.core.timeslot.build_pchannel_table`)
    #: keeps when no pattern is pinned; a constrained table it cannot
    #: build is a :class:`ConfigurationError` naming device and slot.
    table_constraints: Sequence[TableConstraint] = ()
    #: Stagger pre-defined start times before packing the table.
    #: Ignored when ``table_constraints`` are given: the lags relate
    #: jobs by their configured release offsets.
    stagger: bool = True
    #: Slot length for simulation (cycles).
    cycles_per_slot: int = 2_000


class System:
    """A built system: task set, time slot table and servers.

    Create via :func:`build_system`; query and run via
    :func:`analyze`, :func:`admit`, :func:`withdraw` and
    :func:`simulate`.
    """

    def __init__(
        self,
        config: SystemConfig,
        tasks: TaskSet,
        predefined: TaskSet,
        table: TimeSlotTable,
        servers: List[ServerSpec],
        design: Optional[ServerDesign] = None,
        synthesis: Optional[SynthesisReport] = None,
    ) -> None:
        self.config = config
        #: The configured task set.  Change the run-time population
        #: through :func:`admit`/:func:`withdraw`; :func:`analyze`
        #: returns synthesis's verdicts, which were proved against this
        #: set as built, only while its run-time tasks are unchanged.
        self.tasks = tasks
        #: Pre-defined tasks with their (possibly staggered) offsets, as
        #: packed into the table.
        self.predefined = predefined
        self.table = table
        self.servers = servers
        #: The auto-design record, when servers were not pinned.
        self.design = design
        #: The full synthesis report (witness + provenance), when the
        #: servers went through :mod:`repro.synth`.
        self.synthesis = synthesis
        #: The run-time population synthesis verified its verdicts on.
        self._verified_population = (
            None if synthesis is None else _population_signature(tasks)
        )
        self._controller: Optional[AdmissionController] = None

    @property
    def vm_ids(self) -> List[int]:
        return [spec.vm_id for spec in self.servers]

    def server_for(self, vm_id: int) -> ServerSpec:
        for spec in self.servers:
            if spec.vm_id == vm_id:
                return spec
        raise KeyError(f"no server for VM {vm_id}; have {self.vm_ids}")

    @property
    def controller(self) -> AdmissionController:
        """The lazily created admission controller, seeded with the
        system's own run-time tasks.

        Raises :class:`ConfigurationError` (a ``ValueError`` subclass
        carrying ``failing_t`` and the ``(vm_id, pi, theta)`` triples)
        when the configured servers fail the global Theorem-2 test --
        services turn this into a structured rejection, not a 500.
        """
        if self._controller is None:
            controller = AdmissionController(self.table, self.servers)
            for task in self.tasks.runtime():
                decision = controller.try_admit(task)
                if not decision.schedulable:
                    raise ValueError(
                        f"configured task {task.name!r} is not admissible "
                        f"under its own server: {decision.reason}"
                    )
            self._controller = controller
        return self._controller

    def runtime_population(self) -> Dict[int, TaskSet]:
        """Current run-time tasks per VM (admissions included)."""
        if self._controller is not None:
            return {
                vm_id: self._controller.admitted_tasks(vm_id)
                for vm_id in sorted(self.vm_ids)
            }
        return self.tasks.runtime().by_vm()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"System({self.config.name!r}, {len(self.tasks)} tasks, "
            f"H={self.table.total_slots}, {len(self.servers)} servers)"
        )


@dataclass
class AnalysisReport(ReportBase):
    """Whole-system verdict from :func:`analyze`.

    Satisfies the :class:`SchedulabilityResult` protocol via the shared
    :class:`ReportBase` plumbing (``__bool__`` mirrors ``schedulable``;
    ``failing_t`` scans the global then the per-VM results); the
    per-layer results are attached for drill-down.
    """

    schedulable: bool
    table: TimeSlotTable
    servers: List[ServerSpec]
    global_result: Optional[GSchedResult] = None
    local_results: Dict[int, LSchedResult] = field(default_factory=dict)
    reason: str = ""

    def _witness_results(self):
        yield self.global_result
        for vm_id in sorted(self.local_results):
            yield self.local_results[vm_id]

    def summary(self) -> str:
        verdict = "schedulable" if self.schedulable else "unschedulable"
        text = (
            f"system: {verdict} "
            f"[H={self.table.total_slots}, F={self.table.free_slots}, "
            f"{len(self.servers)} servers, {len(self.local_results)} VMs]"
        )
        if self.reason:
            text += f" - {self.reason}"
        return text


@dataclass
class SimulationReport:
    """Outcome of one :func:`simulate` run."""

    horizon: int
    completed: int
    deadline_misses: int
    missed_jobs: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.deadline_misses == 0

    def summary(self) -> str:
        return (
            f"simulated {self.horizon} slots: {self.completed} jobs "
            f"completed, {self.deadline_misses} deadline misses"
        )


def _validate_pinned_table(table: TimeSlotTable, predefined: TaskSet) -> None:
    """Check a hand-written pattern can host every pre-defined job.

    Every job of every pre-defined task needs ``C`` *occupied* slots
    inside its release window; jobs are matched to slots EDF-greedily
    (earliest absolute deadline takes the earliest slots), which is
    exact for unit-slot interval scheduling.  Failures raise
    :class:`ConfigurationError` naming the conflicting device/slot pair
    -- not just a witness instant -- so the integrator knows *which*
    table row to fix.
    """
    if len(predefined) == 0:
        return
    h = table.total_slots
    for task in sorted(predefined, key=lambda task: task.name):
        if h % task.period != 0:
            raise ConfigurationError(
                f"pinned table of {h} slots does not tile pre-defined task "
                f"{task.name!r} (device {task.device!r}, period "
                f"{task.period}): H must be a multiple of every pre-defined "
                "period",
                device=task.device,
                slot=task.offset % h,
            )
    jobs = []
    for task in predefined:
        for index in range(h // task.period):
            release = task.offset + index * task.period
            jobs.append((release + task.deadline, release, task, index))
    jobs.sort(key=lambda entry: (entry[0], entry[1], entry[2].name, entry[3]))
    available = set(table.occupied_indices())
    for absolute_deadline, release, task, index in jobs:
        window = [
            slot
            for slot in range(release, absolute_deadline)
            if slot % h in available
        ]
        if len(window) < task.wcet:
            raise ConfigurationError(
                f"pinned table cannot host pre-defined task {task.name!r} "
                f"(device {task.device!r}): job {index} releasing at slot "
                f"{release % h} needs {task.wcet} occupied slots in its "
                f"{task.deadline}-slot window but only {len(window)} are "
                "unclaimed",
                device=task.device,
                slot=release % h,
            )
        for slot in window[: task.wcet]:
            available.discard(slot % h)


def _build_table(config: SystemConfig, predefined: TaskSet) -> TimeSlotTable:
    """The sigma* for a config: pinned, or built under its constraints."""
    if config.table_pattern is not None:
        table = TimeSlotTable.from_pattern(list(config.table_pattern))
        _validate_pinned_table(table, predefined)
        return table
    try:
        return build_pchannel_table(
            predefined, constraints=config.table_constraints
        )
    except TableOverflowError as error:
        if not config.table_constraints:
            raise
        raise ConfigurationError(
            f"constrained table construction failed: {error}",
            device=error.device,
            slot=error.slot,
        ) from error


def _synthesize_servers_for(
    config: SystemConfig,
    table: TimeSlotTable,
    taskset: TaskSet,
) -> Tuple[Optional[SynthesisReport], Optional[ServerSearchOutcome]]:
    """Run server synthesis for every VM the config leaves open.

    Fully specified ``ServerConfig`` entries become fixed pins, entries
    with ``theta=None`` pin the period only, and with no ``servers``
    block at all every VM with run-time tasks is synthesized from
    scratch.  Returns ``(None, None)`` when there is nothing to design
    (no run-time VMs and no pinned servers).
    """
    vm_tasksets = taskset.runtime().by_vm()
    fixed: Dict[int, Tuple[int, int]] = {}
    pinned_periods: Dict[int, int] = {}
    if config.servers is not None:
        for entry in config.servers:
            if entry.theta is not None:
                fixed[entry.vm_id] = (entry.pi, entry.theta)
            else:
                pinned_periods[entry.vm_id] = entry.pi
        for vm_id in sorted(set(fixed) | set(pinned_periods)):
            vm_tasksets.setdefault(vm_id, TaskSet(name=f"vm{vm_id}"))
    if not vm_tasksets:
        return None, None
    outcome = synthesize_servers(
        table, vm_tasksets, fixed=fixed, pinned_periods=pinned_periods
    )
    seed_bandwidth: Optional[float] = None
    if outcome.seed is not None and outcome.seed.servers:
        seed_bandwidth = bandwidth_of(
            sorted(outcome.seed.servers.values()) + sorted(fixed.values())
        )
    reason = "; ".join(
        outcome.failures[key] for key in sorted(outcome.failures)
    )
    report = SynthesisReport(
        schedulable=outcome.feasible,
        table=table,
        servers=[
            ServerSpec(vm_id, pi, theta)
            for vm_id, (pi, theta) in sorted(outcome.servers.items())
        ],
        global_result=outcome.global_result,
        local_results=dict(outcome.local_results),
        reason=reason,
        stats=outcome.stats,
        seed_bandwidth=seed_bandwidth,
        improved=outcome.improved,
        fast_path_vms=outcome.fast_path_vms,
    )
    return report, outcome


def _check_server_fields(servers: Sequence[ServerConfig]) -> None:
    """Reject server parameters the analysis cannot take, by name.

    The analysis does exact integer arithmetic on ``pi``/``theta`` and
    fills int64 arrays with their multiples, so a float fails it with a
    bare ``TypeError`` and a value past the int64-safe horizon with an
    untyped ``OverflowError``.  ``pi < 1`` or a pinned ``theta`` outside
    ``1..pi`` is no server at all, and two entries for one VM leave its
    server ambiguous.
    """
    seen: Set[int] = set()
    for entry in servers:
        if entry.vm_id in seen:
            raise ConfigurationError(
                f"server of VM {entry.vm_id}: vm_id is configured twice"
            )
        seen.add(entry.vm_id)
        for name, value in (("pi", entry.pi), ("theta", entry.theta)):
            if name == "theta" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"server of VM {entry.vm_id}: {name} must be an int, "
                    f"got {value!r}"
                )
            if value > INT64_SAFE_HORIZON:
                raise ConfigurationError(
                    f"server of VM {entry.vm_id}: {name}={value} exceeds "
                    f"the int64-safe horizon {INT64_SAFE_HORIZON}"
                )
        if entry.pi < 1:
            raise ConfigurationError(
                f"server of VM {entry.vm_id}: pi={entry.pi} must be >= 1"
            )
        if entry.theta is not None and not 1 <= entry.theta <= entry.pi:
            raise ConfigurationError(
                f"server of VM {entry.vm_id}: theta={entry.theta} must lie "
                f"in 1..pi={entry.pi}"
            )


def build_system(config: SystemConfig) -> System:
    """Instantiate a system from its configuration.

    Builds the time slot table (packing the pre-defined tasks, under
    ``table_constraints`` if any, unless a pattern is pinned) and the
    per-VM servers.  Servers the config leaves open -- no ``servers`` block,
    or entries with ``theta=None`` -- are synthesized bandwidth-
    minimally (:mod:`repro.synth`); the full :class:`SynthesisReport`
    lands on ``System.synthesis`` and its design summary on
    ``System.design``.  Raises
    :class:`~repro.core.timeslot.TableOverflowError` when the
    pre-defined tasks cannot be packed and :class:`ConfigurationError`
    when they cannot be packed under ``table_constraints`` or a pinned
    pattern cannot host them (naming the conflicting device/slot pair),
    or when every server is pinned and a VM with
    run-time tasks has none (naming the VM) -- :func:`analyze` runs
    Theorem 4 only for VMs with a server, so such a VM would escape it.
    A server's ``pi`` or pinned ``theta`` that is not an ``int`` (or is
    a ``bool``), exceeds :data:`~repro.analysis.engine.INT64_SAFE_HORIZON`,
    or lies outside ``pi >= 1``, ``1 <= theta <= pi``, and a ``vm_id``
    with two servers, are a :class:`ConfigurationError` naming the VM
    and the field.
    """
    _check_server_fields(config.servers or ())
    taskset = TaskSet(list(config.tasks), name=config.name)
    predefined = taskset.predefined()
    if config.stagger and not config.table_constraints:
        predefined = stagger_offsets(predefined)
    table = _build_table(config, predefined)
    design: Optional[ServerDesign] = None
    synthesis: Optional[SynthesisReport] = None
    if config.servers is not None and all(
        entry.theta is not None for entry in config.servers
    ):
        servers = [
            ServerSpec(entry.vm_id, entry.pi, entry.theta)
            for entry in config.servers
        ]
        unserved = sorted(
            {task.vm_id for task in taskset.runtime()}
            - {spec.vm_id for spec in servers}
        )
        if unserved:
            raise ConfigurationError(
                f"run-time tasks in VM(s) {unserved} have no server; pin a "
                f"ServerConfig for each, or give theta=None to synthesize it"
            )
    else:
        synthesis, outcome = _synthesize_servers_for(config, table, taskset)
        servers = []
        if synthesis is not None and outcome is not None:
            design = outcome.as_design()
            servers = list(synthesis.servers)
    return System(config, taskset, predefined, table, servers, design, synthesis)


def synthesize(config: SystemConfig) -> SynthesisReport:
    """Compute a verified design for the config's open parameters.

    The design-time counterpart of :func:`analyze`: builds sigma*
    (honoring ``table_pattern``/``table_constraints``), searches
    bandwidth-minimal servers for every VM the config leaves open, and
    returns the :class:`SynthesisReport` -- verdict, witness design and
    search provenance.  ``build_system`` on the same config round-trips
    through exactly this path, so the report's servers are the ones a
    built system would run.
    """
    taskset = TaskSet(list(config.tasks), name=config.name)
    predefined = taskset.predefined()
    if config.stagger and not config.table_constraints:
        predefined = stagger_offsets(predefined)
    table = _build_table(config, predefined)
    report, _outcome = _synthesize_servers_for(config, table, taskset)
    if report is None:
        return SynthesisReport(
            schedulable=True,
            table=table,
            servers=[],
            reason="nothing to synthesize: no run-time VMs",
        )
    return report


def _population_signature(tasks: TaskSet) -> Tuple[Tuple[int, str, int, int, int, int], ...]:
    """The run-time tasks' ``(vm_id, name, period, wcet, deadline,
    offset)``, in set order."""
    return tuple(
        (task.vm_id, task.name, task.period, task.wcet, task.deadline, task.offset)
        for task in tasks
        if task.kind == TaskKind.RUNTIME
    )


def _synthesis_verdicts(
    system: System,
) -> Optional[Tuple[GSchedResult, Dict[int, LSchedResult]]]:
    """The Theorem-2/4 verdicts synthesis verified, if they still hold.

    :func:`build_system` verified its synthesized servers against the
    table and the configured population; analyzing that same design
    would recompute them bit for bit.  They are reused while the system
    still holds the verified table (by identity) and ``(vm_id, pi,
    theta)`` servers (by value), no admission controller exists,
    ``System.tasks`` holds the run-time tasks as built (by
    :func:`_population_signature`, so an edit of the set or of a task
    recomputes), and synthesis holds a global result and a result for
    every server (a design that failed before its final verification
    has none).
    Otherwise ``None``: the caller recomputes.  The returned dict is
    new, so a caller's edits cannot reach the synthesis report.
    """
    synthesis = system.synthesis
    if (
        synthesis is None
        or system._controller is not None
        or synthesis.table is not system.table
        or synthesis.global_result is None
        or _population_signature(system.tasks) != system._verified_population
    ):
        return None
    verified = [(spec.vm_id, spec.pi, spec.theta) for spec in synthesis.servers]
    current = [(spec.vm_id, spec.pi, spec.theta) for spec in system.servers]
    if current != verified or any(
        spec.vm_id not in synthesis.local_results for spec in system.servers
    ):
        return None
    return synthesis.global_result, {
        spec.vm_id: synthesis.local_results[spec.vm_id] for spec in system.servers
    }


def analyze(system: System, *, engine: Optional[str] = None) -> AnalysisReport:
    """Run the full Sec. IV analysis on the system's current population.

    Theorem 2 over the servers against the table, then Theorem 4 per VM
    over its run-time tasks (tasks admitted via :func:`admit` count).

    A freshly built system whose servers synthesis designed returns
    synthesis's verified verdicts instead of proving both theorems
    again: the reuse holds while the table and servers are the ones
    synthesis verified and no task was admitted, withdrawn or edited in
    ``System.tasks``.

    ``engine="scalar"`` instead runs the scalar reference tests
    (:func:`~repro.analysis.gsched_test.gsched_schedulable_reference`,
    :func:`~repro.analysis.lsched_test.lsched_schedulable_reference`)
    and never reuses synthesis verdicts; any other value but ``None``
    raises ``ValueError``.  The keyword stays only because the benchmark
    harness (``bench/worker.py``) re-checks every accepted design with
    ``analyze(system, engine="scalar")`` and ``bench/`` changes only
    together with the benchmark; once the harness calls the reference
    functions, the keyword goes.  Other callers use the reference
    functions directly.
    """
    if engine is None:
        verdicts = _synthesis_verdicts(system)
        if verdicts is not None:
            return _assemble_report(system, *verdicts)
        gsched, lsched = gsched_schedulable, lsched_schedulable
    elif engine == "scalar":
        gsched, lsched = gsched_schedulable_reference, lsched_schedulable_reference
    else:
        raise ValueError(
            f"analyze: engine must be None or 'scalar', got {engine!r}"
        )
    population = system.runtime_population()
    pairs = [(spec.pi, spec.theta) for spec in system.servers]
    global_result = gsched(system.table, pairs) if pairs else None
    local_results: Dict[int, LSchedResult] = {}
    for spec in system.servers:
        tasks = population.get(spec.vm_id, TaskSet(name=f"vm{spec.vm_id}"))
        local_results[spec.vm_id] = lsched(spec.pi, spec.theta, tasks)
    return _assemble_report(system, global_result, local_results)


def _assemble_report(
    system: System,
    global_result: Optional[GSchedResult],
    local_results: Dict[int, LSchedResult],
) -> AnalysisReport:
    """Fold per-layer results into the system verdict and reason."""
    design_failures = dict(system.design.failures) if system.design else {}
    global_ok = global_result is None or global_result.schedulable
    all_local = all(result.schedulable for result in local_results.values())
    schedulable = global_ok and all_local and not design_failures
    reason = ""
    if design_failures:
        reason = "; ".join(
            design_failures[vm_id] for vm_id in sorted(design_failures)
        )
    elif not global_ok:
        reason = "global Theorem-2 test failed"
    elif not all_local:
        failing = sorted(
            vm_id
            for vm_id, result in local_results.items()
            if not result.schedulable
        )
        reason = f"local Theorem-4 test failed for VMs {failing}"
    return AnalysisReport(
        schedulable=schedulable,
        table=system.table,
        servers=system.servers,
        global_result=global_result,
        local_results=local_results,
        reason=reason,
    )


def analyze_many(systems: Sequence[System]) -> List[AnalysisReport]:
    """:func:`analyze` over many systems, batching the analysis kernels.

    Every system's Theorem-2 request and every VM's Theorem-4 lane
    across *all* systems are packed into two batch calls
    (:mod:`repro.analysis.batched`) instead of one test per pair;
    report ``i`` is bit-identical to ``analyze(systems[i])``.  A system
    whose synthesis verdicts :func:`analyze` would reuse reuses them
    here too and sends no lanes to the batch.
    """
    systems = list(systems)
    global_results: List[Optional[GSchedResult]] = [None] * len(systems)
    local_results: List[Dict[int, LSchedResult]] = [{} for _ in systems]
    gsched_requests = []
    gsched_owners: List[int] = []
    lsched_requests = []
    lsched_owners: List[Tuple[int, int]] = []
    for index, system in enumerate(systems):
        verdicts = _synthesis_verdicts(system)
        if verdicts is not None:
            global_results[index], local_results[index] = verdicts
            continue
        population = system.runtime_population()
        pairs = [(spec.pi, spec.theta) for spec in system.servers]
        if pairs:
            gsched_requests.append((system.table, pairs))
            gsched_owners.append(index)
        for spec in system.servers:
            tasks = population.get(spec.vm_id, TaskSet(name=f"vm{spec.vm_id}"))
            lsched_requests.append((spec.pi, spec.theta, tasks))
            lsched_owners.append((index, spec.vm_id))
    for owner, result in zip(
        gsched_owners, gsched_schedulable_batch(gsched_requests)
    ):
        global_results[owner] = result
    for (owner, vm_id), result in zip(
        lsched_owners, lsched_schedulable_batch(lsched_requests)
    ):
        local_results[owner][vm_id] = result
    return [
        _assemble_report(system, global_results[index], local_results[index])
        for index, system in enumerate(systems)
    ]


def admit(system: System, task: IOTask) -> AdmissionDecision:
    """Online Theorem-4 admission of one run-time task.

    Delegates to the system's :class:`AdmissionController` (created on
    first use, seeded with the configured run-time tasks); admitted
    tasks join the population seen by :func:`analyze` and
    :func:`simulate`.
    """
    return system.controller.try_admit(task)


def withdraw(system: System, vm_id: int, task_name: str) -> IOTask:
    """Remove a previously admitted run-time task, freeing its demand."""
    return system.controller.withdraw(vm_id, task_name)


@dataclass
class ChainConfig:
    """Everything needed to build and analyze a chain system.

    Bundles a :class:`ChainWorkloadConfig` (what the chains look like)
    with the build knobs of :class:`SystemConfig`; one ``seed`` pins
    the whole draw, so a config replays bit-identically.
    """

    seed: int = 2021
    workload: ChainWorkloadConfig = field(default_factory=ChainWorkloadConfig)
    name: str = "chains"
    cycles_per_slot: int = 2_000


@dataclass
class ChainAnalysisReport(ReportBase):
    """Whole-system chain verdict from :func:`analyze_chains`.

    ``base`` carries the Theorem 2 + 4 schedulability verdict; the
    end-to-end bounds are only meaningful when it holds *and* every
    hop's response-time iteration converged (:attr:`bounded`).
    ``__bool__``/``failing_t`` come from :class:`ReportBase`: the
    verdict mirrors :attr:`schedulable`, the witness delegates to the
    base report (chain bounds carry no witness instant).
    """

    base: AnalysisReport
    chains: Dict[str, ChainBound]

    @property
    def bounded(self) -> bool:
        return all(bound.bounded for bound in self.chains.values())

    @property
    def schedulable(self) -> bool:
        return self.base.schedulable and self.bounded

    def _witness_results(self):
        return self.base._witness_results()

    def data_age_bound(self, chain_name: str) -> Optional[int]:
        return self.chains[chain_name].data_age_bound

    def reaction_time_bound(self, chain_name: str) -> Optional[int]:
        return self.chains[chain_name].reaction_time_bound

    def summary(self) -> str:
        lines = [self.base.summary()]
        for chain_name in sorted(self.chains):
            lines.append(self.chains[chain_name].summary())
        return "\n".join(lines)


def build_chain_system(
    config: ChainConfig,
) -> Tuple[System, Tuple[CauseEffectChain, ...]]:
    """Generate a chain workload and build the system hosting it."""
    workload = generate_chain_workload(
        config.seed, config.workload, name=config.name
    )
    system = build_system(
        SystemConfig(
            tasks=workload.taskset.tasks,
            name=config.name,
            cycles_per_slot=config.cycles_per_slot,
        )
    )
    return system, workload.chains


def analyze_chains(
    system: System,
    chains: Sequence[CauseEffectChain],
) -> ChainAnalysisReport:
    """Bound every chain's end-to-end latency over the system's schedule.

    Runs the full :func:`analyze` verdict, then composes per-hop
    response-time bounds (R-channel hops against their VM's server and
    *entire* current run-time population, P-channel hops against their
    table placement) into max-data-age and max-reaction-time bounds;
    see :mod:`repro.chains.analysis` for the semantics.  Tasks admitted
    via :func:`admit` count toward the interfering demand.
    """
    base = analyze(system)
    population = system.runtime_population()
    tasks = TaskSet(name=f"{system.config.name}.population")
    for task in system.predefined:
        tasks.add(task)
    for vm_id in sorted(population):
        for task in population[vm_id]:
            tasks.add(task)
    servers = {spec.vm_id: spec for spec in system.servers}
    bounds = analyze_chain_set(tuple(chains), tasks, servers)
    return ChainAnalysisReport(base=base, chains=bounds)


#: Device-name prefixes mapped to their protocol controller; anything
#: else gets the generic timing model.
_CONTROLLER_PREFIXES: Tuple[Tuple[str, type], ...] = (
    ("spi", SPIController),
    ("i2c", I2CController),
    ("uart", UARTController),
    ("eth", EthernetController),
    ("flexray", FlexRayController),
    ("can", CANController),
    ("gpio", GPIOController),
)


def _controller_for(device: str) -> IOController:
    """Instantiate a controller matching the device's naming convention."""
    lowered = device.lower()
    for prefix, controller_cls in _CONTROLLER_PREFIXES:
        if lowered.startswith(prefix):
            return controller_cls(name=device)
    return IOController(name=device)


def simulate(
    system: System, horizon: int, *, trace: Optional[TraceRecorder] = None
) -> SimulationReport:
    """Execute the system for ``horizon`` slots on the hypervisor model.

    Attaches one generic driver/device pair per distinct ``device`` name
    in the task set, loads the pre-defined tasks into the P-channel and
    releases every run-time job periodically.  Returns completion and
    deadline-miss counts; with a ``schedulable`` analysis verdict the
    miss count must be zero.

    ``trace`` attaches a recorder to the hypervisor and every device
    manager; :mod:`repro.obs` derives job and chain spans from the
    recorded events.  Tracing is observation only -- attaching it
    cannot change the run's outcome.
    """
    if horizon < 0:
        raise ValueError(f"cannot simulate a negative horizon: {horizon}")
    hypervisor = IOGuardHypervisor(
        HypervisorConfig(
            cycles_per_slot=system.config.cycles_per_slot, trace=trace
        )
    )
    population = system.runtime_population()
    runtime_tasks = [
        task for vm_id in sorted(population) for task in population[vm_id]
    ]
    devices = sorted(
        {task.device for task in system.predefined}
        | {task.device for task in runtime_tasks}
    )
    for device in devices:
        driver = VirtualizationDriver(
            _controller_for(device), EchoDevice(f"{device}.dev")
        )
        on_device = TaskSet(
            [task for task in system.predefined if task.device == device],
            name=f"{device}.predefined",
        )
        hypervisor.attach_device(device, driver, on_device, system.servers)
    releases: List[Tuple[int, IOTask, int]] = []
    for task in runtime_tasks:
        release, index = 0, 0
        while release < horizon:
            releases.append((release, task, index))
            release += task.period
            index += 1
    releases.sort(key=lambda entry: entry[0])
    cursor = 0
    for slot in range(horizon):
        while cursor < len(releases) and releases[cursor][0] == slot:
            _slot, task, index = releases[cursor]
            hypervisor.submit(task.job(release=slot, index=index))
            cursor += 1
        hypervisor.step(slot)
    completed = hypervisor.completed_jobs
    missed = [job for job in completed if job.met_deadline() is False]
    return SimulationReport(
        horizon=horizon,
        completed=len(completed),
        deadline_misses=len(missed),
        missed_jobs=[job.name for job in missed],
    )

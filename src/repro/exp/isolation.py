"""Inter-VM isolation experiment (footnote 1 of the paper).

"Partitioning of I/O pools ensures inter-VM isolation at hardware I/O
level."  The scenario: every VM *declares* a nominal I/O load and the
servers are dimensioned from those declarations; a *rogue* VM then
violates its contract, releasing jobs far beyond what it declared.
The victim VM keeps its declared behaviour.  Measured: victim deadline
misses as the rogue's actual rate grows.

Two service disciplines face the same arrival sequences:

* **I/O-GUARD R-channel** -- per-VM pools + budgeted EDF (G-Sched):
  the rogue can consume its own budget and otherwise-idle background
  slots, never the victim's budget; victim misses stay at zero at any
  rogue intensity.
* **Shared FIFO** (the baseline hardware structure) -- all requests
  interleave in arrival order; the victim's waits grow with the
  rogue's rate until its deadlines collapse.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.servers import minimum_budgets_batched
from repro.core.gsched import ServerSpec
from repro.core.manager import DegradationPolicy, QuarantineEvent, VirtualizationManager
from repro.core.priority_queue import FIFOQueue, PriorityQueue, QueueFullError
from repro.core.rchannel import RChannel
from repro.exp.reporting import render_table
from repro.faults.injectors import FaultController
from repro.faults.plan import FaultPlan, generate_fault_plan
from repro.faults.trace import FaultTrace
from repro.hw.devices import IODevice
from repro.metrics.backpressure import BackPressureReport
from repro.sim.rng import RandomSource
from repro.tasks.task import Criticality, IOTask, Job
from repro.tasks.taskset import TaskSet

VICTIM_VM = 0
ROGUE_VM = 1

#: Server period used for dimensioning (slots).
SERVER_PERIOD = 50


@dataclass
class IsolationResult:
    """Victim misses per discipline, per rogue intensity."""

    rogue_factors: List[float]
    #: discipline -> victim miss counts aligned with rogue_factors.
    victim_misses: Dict[str, List[int]]
    victim_jobs: int
    servers: List[Tuple[int, int, int]]  # (vm, pi, theta)

    def miss_curve(self, discipline: str) -> List[int]:
        return self.victim_misses[discipline]


def declared_tasks() -> TaskSet:
    """What both VMs promise: victim safety traffic + rogue nominal load."""
    return TaskSet(
        [
            IOTask(
                name="victim.brake", period=200, wcet=6, vm_id=VICTIM_VM,
                criticality=Criticality.SAFETY, payload_bytes=16,
            ),
            IOTask(
                name="victim.steer", period=500, wcet=15, vm_id=VICTIM_VM,
                criticality=Criticality.SAFETY, payload_bytes=32,
            ),
            IOTask(
                name="victim.watchdog", period=400, wcet=4, vm_id=VICTIM_VM,
                criticality=Criticality.SAFETY, payload_bytes=8,
            ),
            IOTask(
                name="rogue.nominal", period=250, wcet=25, vm_id=ROGUE_VM,
                criticality=Criticality.SYNTHETIC, payload_bytes=64,
            ),
        ],
        name="isolation.declared",
    )


def dimension_servers(declared: TaskSet) -> List[ServerSpec]:
    """Theorem-4-minimal budgets from the *declared* loads."""
    vms = sorted(declared.by_vm().items())
    budgets = minimum_budgets_batched([(SERVER_PERIOD, tasks) for _vm, tasks in vms])
    specs = []
    for (vm_id, _tasks), theta in zip(vms, budgets):
        if theta is None:
            raise ValueError(
                f"declared load of VM {vm_id} is not servable at "
                f"Pi={SERVER_PERIOD}"
            )
        specs.append(ServerSpec(vm_id, SERVER_PERIOD, theta))
    return specs


def _releases(
    declared: TaskSet, rogue_factor: float, horizon: int, rng: RandomSource
):
    """Arrival sequence: declared releases + the rogue's excess flood.

    The rogue's *actual* inter-release separation is its declared period
    divided by ``rogue_factor`` -- a contract violation once the factor
    exceeds 1.
    """
    events = []
    for task in declared:
        period = task.period
        if task.vm_id == ROGUE_VM and rogue_factor > 1.0:
            period = max(1, int(round(task.period / rogue_factor)))
        phase = rng.randint(0, task.period - 1)
        index = 0
        release = phase
        while release < horizon:
            events.append((release, task, index))
            index += 1
            release = phase + index * period
    events.sort(key=lambda entry: entry[0])
    return events


def _run_ioguard(declared, servers, events, horizon):
    """Budgeted-EDF pools: the real R-channel, rogue pool included."""
    channel = RChannel(servers, pool_capacity=4096)
    cursor = 0
    victim_misses = 0
    for slot in range(horizon):
        while cursor < len(events) and events[cursor][0] <= slot:
            _r, task, index = events[cursor]
            channel.submit(task.job(release=events[cursor][0], index=index))
            cursor += 1
        channel.tick(slot)
        done = channel.execute_slot(slot)
        if (
            done is not None
            and done.task.vm_id == VICTIM_VM
            and slot + 1 > done.absolute_deadline
        ):
            victim_misses += 1
    # Victim jobs stuck in the pool past their deadlines also missed.
    for job in channel.pools[VICTIM_VM].queue.jobs():
        if job.absolute_deadline <= horizon:
            victim_misses += 1
    return victim_misses


def _run_fifo(events, horizon):
    """Single shared FIFO served one slot of work per slot."""
    queue = FIFOQueue(capacity=100_000)
    cursor = 0
    victim_misses = 0
    current = None
    for slot in range(horizon):
        while cursor < len(events) and events[cursor][0] <= slot:
            _r, task, index = events[cursor]
            queue.insert(task.job(release=events[cursor][0], index=index))
            cursor += 1
        if current is None and queue:
            current = queue.pop()
        if current is not None:
            current.execute(1)
            if current.remaining == 0:
                if (
                    current.task.vm_id == VICTIM_VM
                    and slot + 1 > current.absolute_deadline
                ):
                    victim_misses += 1
                current = None
    # Victim jobs still queued past their deadlines missed too.
    for job in queue.jobs():
        if job.task.vm_id == VICTIM_VM and job.absolute_deadline <= horizon:
            victim_misses += 1
    if (
        current is not None
        and current.task.vm_id == VICTIM_VM
        and current.absolute_deadline <= horizon
    ):
        victim_misses += 1
    return victim_misses


def run_isolation(
    *,
    rogue_factors=(1.0, 4.0, 8.0, 16.0),
    horizon_slots: int = 20_000,
    seed: int = 99,
) -> IsolationResult:
    """Sweep the rogue's contract violation; count victim misses."""
    declared = declared_tasks()
    servers = dimension_servers(declared)
    misses: Dict[str, List[int]] = {"ioguard-rchannel": [], "shared-fifo": []}
    victim_jobs = 0
    for factor in rogue_factors:
        if factor < 1.0:
            raise ValueError(
                f"rogue factor must be >= 1 (1 = contract kept), got {factor}"
            )
        rng = RandomSource(seed, f"iso{factor}")
        events = _releases(declared, factor, horizon_slots, rng)
        victim_jobs = sum(
            1
            for release, task, _i in events
            if task.vm_id == VICTIM_VM
            and release + task.deadline <= horizon_slots
        )
        misses["ioguard-rchannel"].append(
            _run_ioguard(declared, servers, events, horizon_slots)
        )
        misses["shared-fifo"].append(_run_fifo(events, horizon_slots))
    return IsolationResult(
        rogue_factors=list(rogue_factors),
        victim_misses=misses,
        victim_jobs=victim_jobs,
        servers=[(s.vm_id, s.pi, s.theta) for s in servers],
    )


# ---------------------------------------------------------------------------
# Fault-plan-driven isolation (the robustness layer's headline scenario)
# ---------------------------------------------------------------------------

#: Disciplines facing the fault plan.  ``ioguard`` is the R-channel with
#: containment (per-VM pools, budgeted EDF, quarantine policy);
#: ``rtxen-edf`` is RT-XEN-style software EDF over one shared queue (no
#: per-VM budgets, no containment); ``shared-fifo`` is the BV/Legacy
#: shared FIFO hardware structure.
FAULT_DISCIPLINES = ("ioguard", "rtxen-edf", "shared-fifo")

#: Hardware pool size per VM under I/O-GUARD, and the shared-queue size
#: the baselines get (same total buffering: 2 VMs x 64).
FAULT_POOL_CAPACITY = 64
FAULT_SHARED_CAPACITY = 128

_STALL_LIMIT = 3
_REJECT_LIMIT = 40


@dataclass
class FaultIsolationResult:
    """Outcome of one fault plan applied to every discipline."""

    plan: FaultPlan
    horizon_slots: int
    victim_jobs: int
    #: discipline -> victim deadline misses (late, rejected, or stranded).
    victim_misses: Dict[str, int]
    #: discipline -> SHA-256 over the completion/burn event stream.
    sim_trace_digests: Dict[str, str]
    fault_trace_jsonl: str
    fault_trace_digest: str
    backpressure: BackPressureReport
    quarantine_log: List[QuarantineEvent]
    storm_jobs: int
    storm_rejected: Dict[str, int] = field(default_factory=dict)
    blocked_slots: Dict[str, int] = field(default_factory=dict)


def fault_declared_tasks() -> TaskSet:
    """Declared loads with explicit device routing.

    The victim's safety traffic runs over the healthy ``eth0``; the
    rogue's nominal task polls ``sens1`` -- the device the fault plan
    stalls -- so a wedged sensor plus a babbling-idiot flood both
    originate on the rogue side of the partition.
    """
    declared = declared_tasks()
    tasks = []
    for task in declared:
        clone = task.renamed(task.name)
        clone.device = "eth0" if task.vm_id == VICTIM_VM else "sens1"
        tasks.append(clone)
    return TaskSet(tasks, name="isolation.faults.declared")


def build_isolation_fault_plan(seed: int, horizon_slots: int) -> FaultPlan:
    """The scenario's seed-derived plan: stall ``sens1``, storm the rogue."""
    return generate_fault_plan(
        seed,
        horizon_slots=horizon_slots,
        devices=("sens1",),
        storm_vms=(ROGUE_VM,),
        storm_jobs_per_slot=4,
        storm_device="sens1",
        name="isolation.faults",
    )


def _digest_lines(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _victim_miss(job: Job, horizon: int) -> bool:
    """A victim job whose deadline fell inside the horizon missed it."""
    return job.task.vm_id == VICTIM_VM and job.absolute_deadline <= horizon


def _run_ioguard_faults(servers, events, plan, horizon, obs_trace=None):
    """I/O-GUARD with containment: guarded executor + quarantine policy.

    ``obs_trace`` optionally attaches a
    :class:`~repro.sim.trace.TraceRecorder` to the manager so the run
    emits scheduler/pool observability events; ``None`` (the default)
    keeps the run on the untraced fast path, byte-identical to before.
    """
    trace = FaultTrace()
    devices = {
        "eth0": IODevice("eth0", service_cycles=100),
        "sens1": IODevice("sens1", service_cycles=100),
    }
    controller = FaultController(plan, devices=devices, trace=trace)
    policy = DegradationPolicy(
        stall_limit=_STALL_LIMIT, reject_limit=_REJECT_LIMIT
    )
    manager = VirtualizationManager(
        "io",
        TaskSet([], name="isolation.faults.predefined"),
        servers,
        pool_capacity=FAULT_POOL_CAPACITY,
        degradation=policy,
        trace=obs_trace,
    )
    sim_lines: List[str] = []
    quarantines_seen = 0

    def sync_quarantines() -> None:
        nonlocal quarantines_seen
        while quarantines_seen < len(policy.log):
            event = policy.log[quarantines_seen]
            trace.record(
                event.slot,
                "containment",
                event.target,
                f"quarantine-{event.category}",
                reason=event.reason,
            )
            quarantines_seen += 1

    def guard(job: Job, slot: int) -> bool:
        device = devices.get(job.task.device)
        if device is not None and device.stalled:
            trace.record(
                slot, "device-stall", job.task.device, "timeout", job=job.name
            )
            manager.report_device_stall(job.task.device, slot)
            sync_quarantines()
            sim_lines.append(f"{slot},burn,{job.name}")
            return False
        manager.report_device_service(job.task.device)
        return True

    victim_misses = 0
    storm_rejected = 0
    cursor = 0
    for slot in range(horizon):
        storm_jobs = controller.on_slot(slot)
        while cursor < len(events) and events[cursor][0] <= slot:
            _release, task, index = events[cursor]
            job = task.job(release=events[cursor][0], index=index)
            if not manager.submit(job, slot=slot) and _victim_miss(job, horizon):
                victim_misses += 1
            sync_quarantines()
            cursor += 1
        for job in storm_jobs:
            if not manager.submit(job, slot=slot):
                storm_rejected += 1
                trace.record(
                    slot, "queue-storm", f"vm{job.task.vm_id}", "reject",
                    job=job.name,
                )
            sync_quarantines()
        done = manager.execute_slot(slot, guard=guard)
        if done is not None:
            late = slot + 1 > done.absolute_deadline
            sim_lines.append(
                f"{slot},complete,{done.name},{'late' if late else 'ok'}"
            )
            if done.task.vm_id == VICTIM_VM and late:
                victim_misses += 1
    for job in manager.rchannel.pools[VICTIM_VM].queue.jobs():
        if _victim_miss(job, horizon):
            victim_misses += 1
    return {
        "victim_misses": victim_misses,
        "storm_rejected": storm_rejected,
        "blocked_slots": manager.rchannel.blocked_slots,
        "sim_digest": _digest_lines(sim_lines),
        "trace": trace,
        "backpressure": BackPressureReport.from_rchannel(manager.rchannel),
        "quarantine_log": list(policy.log),
    }


def _run_shared_queue_faults(queue_factory, events, plan, horizon):
    """A baseline without per-VM pools or containment.

    One shared queue; the head-of-queue job executes one slot at a time.
    A stalled device *wedges* the head (no timeout/quarantine), and the
    storm competes with the victim for the shared buffer -- the two
    failure modes I/O-GUARD's partitioning removes.
    """
    devices = {
        "eth0": IODevice("eth0", service_cycles=100),
        "sens1": IODevice("sens1", service_cycles=100),
    }
    controller = FaultController(plan, devices=devices, trace=FaultTrace())
    queue = queue_factory()
    sim_lines: List[str] = []
    victim_misses = 0
    storm_rejected = 0
    blocked = 0
    cursor = 0

    def offer(job: Job) -> bool:
        try:
            queue.insert(job)
        except QueueFullError:
            return False
        return True

    for slot in range(horizon):
        storm_jobs = controller.on_slot(slot)
        while cursor < len(events) and events[cursor][0] <= slot:
            _release, task, index = events[cursor]
            job = task.job(release=events[cursor][0], index=index)
            if not offer(job) and _victim_miss(job, horizon):
                victim_misses += 1
            cursor += 1
        for job in storm_jobs:
            if not offer(job):
                storm_rejected += 1
        job = queue.peek()
        if job is None:
            continue
        device = devices.get(job.task.device)
        if device is not None and device.stalled:
            # No guarded path: the head blocks and the slot is lost.
            blocked += 1
            sim_lines.append(f"{slot},burn,{job.name}")
            continue
        job.execute(1)
        if job.remaining == 0:
            if isinstance(queue, FIFOQueue):
                queue.pop()
            else:
                queue.remove(job)
            late = slot + 1 > job.absolute_deadline
            sim_lines.append(
                f"{slot},complete,{job.name},{'late' if late else 'ok'}"
            )
            if job.task.vm_id == VICTIM_VM and late:
                victim_misses += 1
    for job in queue.jobs():
        if _victim_miss(job, horizon):
            victim_misses += 1
    return {
        "victim_misses": victim_misses,
        "storm_rejected": storm_rejected,
        "blocked_slots": blocked,
        "sim_digest": _digest_lines(sim_lines),
    }


def run_fault_isolation(
    *,
    seed: int = 2021,
    horizon_slots: int = 8_000,
    plan: Optional[FaultPlan] = None,
    obs_trace=None,
) -> FaultIsolationResult:
    """Apply one seeded fault plan to I/O-GUARD and the baselines.

    The same arrival sequence and the same fault plan hit every
    discipline; only the hardware structure and the containment differ.
    Determinism contract: identical ``(seed, plan)`` yields identical
    fault-trace and per-discipline simulation-trace digests.

    ``obs_trace`` (a :class:`~repro.sim.trace.TraceRecorder`) attaches
    observability instrumentation to the I/O-GUARD run only -- the
    baselines model hardware without tracing taps.  Tracing never
    perturbs the run: results with and without it are identical.
    """
    declared = fault_declared_tasks()
    servers = dimension_servers(declared)
    if plan is None:
        plan = build_isolation_fault_plan(seed, horizon_slots)
    rng = RandomSource(seed, "isolation.faults.releases")
    events = _releases(declared, 1.0, horizon_slots, rng)
    victim_jobs = sum(
        1
        for release, task, _i in events
        if task.vm_id == VICTIM_VM and release + task.deadline <= horizon_slots
    )
    storm_jobs = sum(
        fault.jobs_per_slot * fault.window.duration_slots
        for fault in plan.storms
    )

    ioguard = _run_ioguard_faults(
        servers, events, plan, horizon_slots, obs_trace=obs_trace
    )
    rtxen = _run_shared_queue_faults(
        lambda: PriorityQueue(capacity=FAULT_SHARED_CAPACITY, name="rtxen.q"),
        events, plan, horizon_slots,
    )
    fifo = _run_shared_queue_faults(
        lambda: FIFOQueue(capacity=FAULT_SHARED_CAPACITY, name="fifo.q"),
        events, plan, horizon_slots,
    )
    runs = {"ioguard": ioguard, "rtxen-edf": rtxen, "shared-fifo": fifo}
    trace: FaultTrace = ioguard["trace"]
    return FaultIsolationResult(
        plan=plan,
        horizon_slots=horizon_slots,
        victim_jobs=victim_jobs,
        victim_misses={d: runs[d]["victim_misses"] for d in FAULT_DISCIPLINES},
        sim_trace_digests={d: runs[d]["sim_digest"] for d in FAULT_DISCIPLINES},
        fault_trace_jsonl=trace.to_jsonl(),
        fault_trace_digest=trace.digest(),
        backpressure=ioguard["backpressure"],
        quarantine_log=ioguard["quarantine_log"],
        storm_jobs=storm_jobs,
        storm_rejected={d: runs[d]["storm_rejected"] for d in FAULT_DISCIPLINES},
        blocked_slots={d: runs[d]["blocked_slots"] for d in FAULT_DISCIPLINES},
    )


def render_fault_isolation(result: FaultIsolationResult) -> str:
    rows = [
        (
            discipline,
            result.victim_misses[discipline],
            result.storm_rejected[discipline],
            result.blocked_slots[discipline],
            result.sim_trace_digests[discipline][:12],
        )
        for discipline in FAULT_DISCIPLINES
    ]
    table = render_table(
        ["discipline", "victim misses", "storm rejects", "burned slots",
         "sim digest"],
        rows,
        title=(
            f"Victim-VM deadline misses under fault plan "
            f"{result.plan.digest()[:12]} ({len(result.plan)} faults, "
            f"{result.storm_jobs} storm jobs, {result.victim_jobs} victim "
            f"jobs, horizon {result.horizon_slots})"
        ),
    )
    lines = [table, ""]
    lines.append(f"fault plan digest:  {result.plan.digest()}")
    lines.append(f"fault trace digest: {result.fault_trace_digest}")
    for event in result.quarantine_log:
        lines.append(
            f"quarantine @{event.slot}: {event.category} {event.target} "
            f"({event.reason})"
        )
    for pressure in result.backpressure.pools:
        lines.append(
            f"pool vm{pressure.vm_id}: submitted={pressure.submitted} "
            f"rejected={pressure.rejected} dropped={pressure.dropped} "
            f"peak={pressure.peak_occupancy}/{pressure.capacity} "
            f"max_streak={pressure.max_reject_streak}"
        )
    return "\n".join(lines)


def render_isolation(result: IsolationResult) -> str:
    rows = [
        (discipline, *result.victim_misses[discipline])
        for discipline in sorted(result.victim_misses)
    ]
    headers = ["discipline"] + [f"rogue x{f:g}" for f in result.rogue_factors]
    table = render_table(
        headers,
        rows,
        title=(
            "Victim-VM deadline misses under a contract-violating rogue "
            f"({result.victim_jobs} victim jobs per cell; servers "
            f"{result.servers})"
        ),
    )
    return table

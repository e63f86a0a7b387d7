"""Online admission control for run-time I/O tasks.

The paper's hypervisor "receives and buffers the run-time I/O tasks
requested by the VMs" (Sec. II-B); a production deployment must decide
*whether a newly appearing sporadic task can be admitted without
breaking the guarantees of the tasks already running*.  The natural
mechanism -- and the obvious extension of the paper's analysis -- is to
re-run the Theorem-4 test against the VM's server whenever a VM asks to
register a new task, and reject registrations that would make the VM's
set unschedulable.

The controller is purely analytic (it consults the same tests the
design-time analysis uses), so an admitted set always carries the full
Sec. IV guarantee; rejection leaves the running set untouched.

Admission is *incremental*: the controller maintains, per VM, the
aggregate demand curve of the admitted set sampled at its dbf step
points (:class:`_VMDemandState`).  Testing a candidate then only costs
the *new* task's demand plus any extension of the Theorem-4 horizon,
instead of re-evaluating every admitted task at every step point.  The
verdict is bit-identical to a full re-test (the union grid *is* the
candidate's step-point grid, and demand/supply are evaluated with the
same integer arithmetic); near the schedulability boundary -- slack
``c' <= 0`` -- the controller falls back to the exact scalar path,
whose utilization/Theorem-3 handling the incremental curve cannot
express.  :meth:`AdmissionController.withdraw` drops the VM's memoized
curve, so the next admission rebuilds it from the live task set --
admit/withdraw/admit sequences decide exactly like a fresh controller.

The controller is also *long-lived state*: :meth:`AdmissionController.snapshot`
captures the full controller (servers, admitted sets, memoized
demand-curve state, counters and the decision ring) as a versioned,
canonical-JSON :class:`ControllerSnapshot`, and
:meth:`AdmissionController.restore` rebuilds a controller that decides
bit-identically to the live one -- the enabler for the
:mod:`repro.serve` admission service, whose shards are rebalanced and
warm-restarted through exactly this round trip.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gsched import ServerSpec
from repro.core.timeslot import TimeSlotTable
from repro.tasks.task import IOTask, TaskKind
from repro.tasks.taskset import TaskSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.demand import DemandSignature
    from repro.analysis.lsched_test import LSchedResult

# The schedulability tests live in repro.analysis, which itself imports
# repro.core (for the time slot table); importing them lazily inside the
# methods below keeps the packages acyclic at import time.

#: Default bound on the retained decision ring.  The controller is
#: designed to live inside a long-running service (:mod:`repro.serve`);
#: an unbounded ``decisions`` list is a memory leak there.  Totals are
#: never lost: ``admitted_count``/``rejected_count`` keep counting and
#: ``dropped_decisions`` counts ring evictions (mirroring the
#: ``TraceRecorder`` ``max_events``/``dropped_events`` contract).
DEFAULT_MAX_DECISIONS = 4096

#: Version stamp of the :class:`ControllerSnapshot` wire format.
SNAPSHOT_SCHEMA_VERSION = 1


class ConfigurationError(ValueError):
    """A server set that can never host admissions.

    Raised at controller construction when the configured servers fail
    the global (Theorem-2) test -- or are structurally invalid -- so a
    service can turn the condition into a structured, typed rejection
    instead of an opaque 500.  ``failing_t`` carries the Theorem-2
    witness (when one exists) and ``servers`` the offending
    ``(vm_id, pi, theta)`` triples.  For infeasible hand-written slot
    tables ``device``/``slot`` name the conflicting device/slot pair
    (the pre-defined task's device and the release slot whose window
    cannot host it) instead of leaving only the witness instant.
    Subclasses ``ValueError`` so pre-existing callers catching the
    untyped error keep working.
    """

    def __init__(
        self,
        message: str,
        *,
        failing_t: Optional[int] = None,
        servers: Sequence[Tuple[int, int, int]] = (),
        device: Optional[str] = None,
        slot: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.failing_t = failing_t
        self.servers: Tuple[Tuple[int, int, int], ...] = tuple(servers)
        self.device = device
        self.slot = slot


@dataclass
class AdmissionDecision:
    """Outcome of one admission request.

    Satisfies the :class:`repro.api.SchedulabilityResult` protocol:
    ``schedulable`` carries the verdict, ``failing_t`` the Theorem-4
    witness (when one exists) and ``summary()`` a one-line rendering.
    """

    schedulable: bool
    task_name: str = ""
    vm_id: int = -1
    reason: str = ""
    #: The Theorem-4 result backing the decision (None for structural
    #: rejections such as an unknown VM).
    test_result: Optional[LSchedResult] = None

    def __post_init__(self) -> None:
        self.schedulable = bool(self.schedulable)

    @property
    def failing_t(self) -> Optional[int]:
        """The Theorem-4 witness behind a rejection, when one exists."""
        if self.test_result is None:
            return None
        return self.test_result.failing_t

    def summary(self) -> str:
        verdict = "admitted" if self.schedulable else "rejected"
        text = f"{self.task_name!r} -> VM {self.vm_id}: {verdict}"
        if self.reason:
            text += f" ({self.reason})"
        return text

    def __bool__(self) -> bool:
        return self.schedulable


def result_to_dict(result: Optional[LSchedResult]) -> Optional[Dict[str, Any]]:
    """JSON-safe form of a Theorem-4 result (``None`` passes through)."""
    if result is None:
        return None
    return {
        "schedulable": result.schedulable,
        "horizon": result.horizon,
        "slack": result.slack,
        "failing_t": result.failing_t,
        "failing_demand": result.failing_demand,
        "failing_supply": result.failing_supply,
        "method": result.method,
        "server": list(result.server),
        "task_names": list(result.task_names),
    }


def result_from_dict(data: Optional[Dict[str, Any]]) -> Optional[LSchedResult]:
    """Inverse of :func:`result_to_dict`; round trips bit-identically."""
    if data is None:
        return None
    from repro.analysis.lsched_test import LSchedResult

    server = data["server"]
    return LSchedResult(
        schedulable=bool(data["schedulable"]),
        horizon=int(data["horizon"]),
        slack=float(data["slack"]),
        failing_t=None if data["failing_t"] is None else int(data["failing_t"]),
        failing_demand=(
            None if data["failing_demand"] is None else int(data["failing_demand"])
        ),
        failing_supply=(
            None if data["failing_supply"] is None else int(data["failing_supply"])
        ),
        method=str(data["method"]),
        server=(int(server[0]), int(server[1])),
        task_names=[str(name) for name in data["task_names"]],
    )


def decision_to_dict(decision: AdmissionDecision) -> Dict[str, Any]:
    """JSON-safe form of one decision (the snapshot/service wire form)."""
    return {
        "schedulable": decision.schedulable,
        "task_name": decision.task_name,
        "vm_id": decision.vm_id,
        "reason": decision.reason,
        "test_result": result_to_dict(decision.test_result),
    }


def decision_from_dict(data: Dict[str, Any]) -> AdmissionDecision:
    """Inverse of :func:`decision_to_dict`; round trips ``==``-equal."""
    return AdmissionDecision(
        schedulable=bool(data["schedulable"]),
        task_name=str(data["task_name"]),
        vm_id=int(data["vm_id"]),
        reason=str(data["reason"]),
        test_result=result_from_dict(data["test_result"]),
    )


@dataclass
class ControllerSnapshot:
    """Versioned, canonical-JSON image of one controller's full state.

    ``admitted`` preserves each VM's admission order (the order the
    incremental curve was grown in); ``memo`` captures the per-VM
    demand-curve state verbatim (signature triples, step points,
    aggregate demand, covered horizon), so a restored controller replays
    the *same* incremental path as the live one -- not merely the same
    verdicts.  Counters and the (bounded) decision ring are carried so
    restarts never lose counts.
    """

    table_pattern: List[int]
    servers: List[Tuple[int, int, int]]
    incremental: bool
    max_decisions: Optional[int]
    admitted: Dict[int, List[Dict[str, Any]]]
    memo: Dict[int, Dict[str, Any]]
    admitted_count: int
    rejected_count: int
    dropped_decisions: int
    decisions: List[Dict[str, Any]] = field(default_factory=list)
    schema_version: int = SNAPSHOT_SCHEMA_VERSION

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict form (int keys stringified, tuples listed)."""
        return {
            "schema_version": self.schema_version,
            "table_pattern": list(self.table_pattern),
            "servers": [list(entry) for entry in self.servers],
            "incremental": self.incremental,
            "max_decisions": self.max_decisions,
            "admitted": {
                str(vm_id): list(tasks)
                for vm_id, tasks in sorted(self.admitted.items())
            },
            "memo": {
                str(vm_id): entry for vm_id, entry in sorted(self.memo.items())
            },
            "admitted_count": self.admitted_count,
            "rejected_count": self.rejected_count,
            "dropped_decisions": self.dropped_decisions,
            "decisions": list(self.decisions),
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators.

        Two controllers with equal state produce byte-identical strings,
        which is what the service's rebalance/warm-restart paths and the
        property suite compare.
        """
        from repro.tasks.serialization import canonical_json

        return canonical_json(self.to_payload())

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ControllerSnapshot":
        version = payload.get("schema_version")
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported controller snapshot schema_version "
                f"{version!r}; this build reads {SNAPSHOT_SCHEMA_VERSION}"
            )
        max_decisions = payload["max_decisions"]
        return cls(
            table_pattern=[int(bit) for bit in payload["table_pattern"]],
            servers=[
                (int(entry[0]), int(entry[1]), int(entry[2]))
                for entry in payload["servers"]
            ],
            incremental=bool(payload["incremental"]),
            max_decisions=None if max_decisions is None else int(max_decisions),
            admitted={
                int(vm_id): list(tasks)
                for vm_id, tasks in payload["admitted"].items()
            },
            memo={
                int(vm_id): dict(entry)
                for vm_id, entry in payload["memo"].items()
            },
            admitted_count=int(payload["admitted_count"]),
            rejected_count=int(payload["rejected_count"]),
            dropped_decisions=int(payload["dropped_decisions"]),
            decisions=list(payload["decisions"]),
            schema_version=int(version),
        )

    @classmethod
    def from_json(cls, text: str) -> "ControllerSnapshot":
        import json

        return cls.from_payload(json.loads(text))


class _VMDemandState:
    """Aggregate demand curve of one VM's admitted set, maintained
    incrementally.

    ``points`` holds the admitted signature's dbf step points over
    ``[0, covered]`` (sorted, distinct) and ``demand`` the aggregate
    Eq. (9) demand at each.  The dbf staircase only jumps at these
    points, so demand at an arbitrary ``t <= covered`` is the value at
    the largest stored point ``<= t``.
    """

    __slots__ = ("signature", "points", "demand", "covered")

    def __init__(self, signature: DemandSignature) -> None:
        self.signature = signature
        self.points = np.zeros(0, dtype=np.int64)
        self.demand = np.zeros(0, dtype=np.int64)
        self.covered = 0

    def extend(self, horizon: int) -> None:
        """Grow the sampled curve to cover ``[0, horizon]``."""
        if horizon <= self.covered or not self.signature:
            self.covered = max(self.covered, horizon)
            return
        from repro.analysis import vectorized as vec

        pairs = vec.step_pairs(self.signature)
        fresh = vec._dedup_sorted(
            vec.step_points_in_range(pairs, self.covered + 1, horizon)
        )
        if fresh.size:
            self.points = np.concatenate([self.points, fresh])
            self.demand = np.concatenate(
                [self.demand, vec.dbf_taskset_at(self.signature, fresh)]
            )
        self.covered = horizon

    def demand_at(self, ts: np.ndarray) -> np.ndarray:
        """Aggregate demand of the admitted set at every ``t`` in ``ts``."""
        if not self.points.size:
            return np.zeros(ts.shape, dtype=np.int64)
        index = np.searchsorted(self.points, ts, side="right") - 1
        return np.where(index >= 0, self.demand[np.maximum(index, 0)], 0)


class AdmissionController:
    """Per-VM Theorem-4 gatekeeper over the R-channel task population."""

    def __init__(
        self,
        table: TimeSlotTable,
        servers: List[ServerSpec],
        *,
        incremental: bool = True,
        max_decisions: Optional[int] = DEFAULT_MAX_DECISIONS,
    ) -> None:
        if max_decisions is not None:
            max_decisions = int(max_decisions)
            if max_decisions < 1:
                raise ValueError(
                    f"max_decisions must be >= 1 (or None for unbounded), "
                    f"got {max_decisions}"
                )
        self.table = table
        self.incremental = incremental
        self.max_decisions = max_decisions
        self._servers: Dict[int, ServerSpec] = {}
        for spec in servers:
            if spec.vm_id in self._servers:
                raise ConfigurationError(
                    f"duplicate server for VM {spec.vm_id}",
                    servers=[(s.vm_id, s.pi, s.theta) for s in servers],
                )
            self._servers[spec.vm_id] = spec
        # The global layer must hold for the configured servers before
        # any admission makes sense.
        from repro.analysis.gsched_test import gsched_schedulable

        pairs = [(s.pi, s.theta) for s in self._servers.values()]
        global_result = gsched_schedulable(table, pairs)
        if not global_result.schedulable:
            raise ConfigurationError(
                "server set fails the global (Theorem-2) test at "
                f"t={global_result.failing_t}; fix the configuration before "
                "admitting tasks",
                failing_t=global_result.failing_t,
                servers=[
                    (s.vm_id, s.pi, s.theta) for s in self._servers.values()
                ],
            )
        self._admitted: Dict[int, TaskSet] = {
            vm_id: TaskSet(name=f"admitted.vm{vm_id}") for vm_id in self._servers
        }
        self._state: Dict[int, _VMDemandState] = {}
        self.admitted_count = 0
        self.rejected_count = 0
        #: Bounded ring of recent decisions; totals live in the counters.
        self.decisions: Deque[AdmissionDecision] = deque()
        #: Decisions evicted from the ring (0 when unbounded).
        self.dropped_decisions = 0

    # -- queries -----------------------------------------------------------

    def admitted_tasks(self, vm_id: int) -> TaskSet:
        self._require_vm(vm_id)
        return self._admitted[vm_id]

    def vm_utilization(self, vm_id: int) -> float:
        return self.admitted_tasks(vm_id).utilization

    def server_of(self, vm_id: int) -> ServerSpec:
        self._require_vm(vm_id)
        return self._servers[vm_id]

    # -- admission ----------------------------------------------------------

    def try_admit(self, task: IOTask) -> AdmissionDecision:
        """Admit ``task`` into its VM iff Theorem 4 still passes.

        On success the task joins the VM's admitted set; on failure the
        set is unchanged and the decision records the failing point.
        """
        if task.kind != TaskKind.RUNTIME:
            decision = AdmissionDecision(
                schedulable=False,
                task_name=task.name,
                vm_id=task.vm_id,
                reason="pre-defined tasks are loaded at initialization, "
                "not admitted at run time",
            )
            return self._record(decision)
        if task.vm_id not in self._servers:
            decision = AdmissionDecision(
                schedulable=False,
                task_name=task.name,
                vm_id=task.vm_id,
                reason=f"no server configured for VM {task.vm_id}",
            )
            return self._record(decision)
        current = self._admitted[task.vm_id]
        if task.name in current:
            decision = AdmissionDecision(
                schedulable=False,
                task_name=task.name,
                vm_id=task.vm_id,
                reason=f"a task named {task.name!r} is already admitted",
            )
            return self._record(decision)
        candidate = TaskSet(current.tasks + [task], name=current.name)
        spec = self._servers[task.vm_id]
        result = self._test_candidate(spec, candidate, task)
        if not result.schedulable:
            decision = AdmissionDecision(
                schedulable=False,
                task_name=task.name,
                vm_id=task.vm_id,
                reason=(
                    f"Theorem 4 fails at t={result.failing_t} "
                    f"(demand {result.failing_demand} > supply "
                    f"{result.failing_supply})"
                ),
                test_result=result,
            )
            return self._record(decision)
        current.add(task)
        decision = AdmissionDecision(
            schedulable=True,
            task_name=task.name,
            vm_id=task.vm_id,
            reason="admitted under Theorem 4",
            test_result=result,
        )
        return self._record(decision)

    def withdraw(self, vm_id: int, task_name: str) -> IOTask:
        """Remove a previously admitted task (frees its demand).

        Also drops the VM's memoized demand curve: the stored points and
        aggregates are keyed to the *admitted signature*, so keeping
        them would replay the withdrawn task's demand against future
        candidates.  The next admission rebuilds the curve from the live
        set, making admit/withdraw/admit indistinguishable from a fresh
        controller.
        """
        self._require_vm(vm_id)
        removed = self._admitted[vm_id].remove(task_name)
        self._state.pop(vm_id, None)
        return removed

    # -- incremental engine --------------------------------------------------

    def _test_candidate(
        self, spec: ServerSpec, candidate: TaskSet, task: IOTask
    ) -> LSchedResult:
        """Theorem-4 verdict for ``candidate``, incrementally when possible.

        Bit-identical to ``lsched_schedulable(spec.pi, spec.theta,
        candidate)``: same slack classification, same horizon, same
        step-point grid, same first failing witness.
        """
        from repro.analysis.lsched_test import (
            _exact_slack,
            _theorem4_bound_from_slack,
            lsched_schedulable,
        )

        slack = _exact_slack(spec.pi, spec.theta, candidate)
        if not self.incremental or slack <= 0:
            # The incremental curve only models the Theorem-4 window;
            # boundary (c' == 0) and overload systems route through the
            # exact/utilization handling of the full test.
            return lsched_schedulable(spec.pi, spec.theta, candidate)
        horizon = _theorem4_bound_from_slack(spec.pi, spec.theta, candidate, slack)
        return self._incremental_window(
            spec, candidate, task, horizon, float(slack)
        )

    def _incremental_window(
        self,
        spec: ServerSpec,
        candidate: TaskSet,
        task: IOTask,
        horizon: int,
        slack: float,
    ) -> LSchedResult:
        from repro.analysis import vectorized as vec
        from repro.analysis.demand import demand_signature
        from repro.analysis.lsched_test import LSchedResult

        admitted_signature = demand_signature(self._admitted[task.vm_id])
        state = self._state.get(task.vm_id)
        if state is None or state.signature != admitted_signature:
            # First use, or the curve no longer matches the live set
            # (e.g. after a withdraw): rebuild from scratch.
            state = _VMDemandState(admitted_signature)
            self._state[task.vm_id] = state
        state.extend(horizon)
        cut = int(np.searchsorted(state.points, horizon, side="right"))
        base_points = state.points[:cut]
        task_points = (
            np.arange(task.deadline, horizon + 1, task.period, dtype=np.int64)
            if horizon >= task.deadline
            else np.zeros(0, dtype=np.int64)
        )
        union = vec._dedup_sorted(
            np.sort(np.concatenate([base_points, task_points]))
        )
        names = [each.name for each in candidate]
        if not union.size:
            # No step point falls inside the window: vacuously
            # schedulable, and the (empty) grid is still the candidate's
            # curve over [0, horizon] -- promote it so the state keeps
            # tracking the admitted signature.
            state.signature = demand_signature(candidate)
            state.points = union
            state.demand = np.zeros(0, dtype=np.int64)
            state.covered = horizon
            return LSchedResult(
                schedulable=True,
                horizon=horizon,
                slack=slack,
                method="theorem4",
                server=(spec.pi, spec.theta),
                task_names=names,
            )
        demand = state.demand_at(union)
        if task_points.size:
            jobs = (union - task.deadline) // task.period + 1
            demand = demand + np.where(
                union >= task.deadline, jobs * task.wcet, 0
            )
        supply = vec.sbf_server_at(spec.pi, spec.theta, union)
        failing = np.nonzero(demand > supply)[0]
        if failing.size:
            index = int(failing[0])
            return LSchedResult(
                schedulable=False,
                horizon=horizon,
                slack=slack,
                failing_t=int(union[index]),
                failing_demand=int(demand[index]),
                failing_supply=int(supply[index]),
                method="theorem4",
                server=(spec.pi, spec.theta),
                task_names=names,
            )
        # Admission will follow: promote the union grid to the VM state
        # so the next candidate only pays for its own step points.
        state.signature = demand_signature(candidate)
        state.points = union
        state.demand = demand
        state.covered = horizon
        return LSchedResult(
            schedulable=True,
            horizon=horizon,
            slack=slack,
            method="theorem4",
            server=(spec.pi, spec.theta),
            task_names=names,
        )

    def _record(self, decision: AdmissionDecision) -> AdmissionDecision:
        if (
            self.max_decisions is not None
            and len(self.decisions) >= self.max_decisions
        ):
            # Ring-buffer mode: evict the oldest decision, explicitly
            # counted -- the admitted/rejected totals never decay.
            self.decisions.popleft()
            self.dropped_decisions += 1
        self.decisions.append(decision)
        if decision.schedulable:
            self.admitted_count += 1
        else:
            self.rejected_count += 1
        return decision

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self) -> ControllerSnapshot:
        """Capture the controller as a :class:`ControllerSnapshot`.

        The snapshot is *complete*: restoring it yields a controller
        whose future decisions (and memoized demand-curve growth) are
        bit-identical to this one's, which the property suite asserts
        against a replayed fresh controller.
        """
        from repro.tasks.serialization import task_to_dict

        memo: Dict[int, Dict[str, Any]] = {}
        for vm_id in sorted(self._state):
            state = self._state[vm_id]
            memo[vm_id] = {
                "signature": [list(triple) for triple in state.signature],
                "points": state.points.tolist(),
                "demand": state.demand.tolist(),
                "covered": state.covered,
            }
        return ControllerSnapshot(
            table_pattern=self.table.occupancy_pattern(),
            servers=[
                (spec.vm_id, spec.pi, spec.theta)
                for spec in (
                    self._servers[vm_id] for vm_id in sorted(self._servers)
                )
            ],
            incremental=self.incremental,
            max_decisions=self.max_decisions,
            admitted={
                vm_id: [
                    task_to_dict(task) for task in self._admitted[vm_id].tasks
                ]
                for vm_id in sorted(self._admitted)
            },
            memo=memo,
            admitted_count=self.admitted_count,
            rejected_count=self.rejected_count,
            dropped_decisions=self.dropped_decisions,
            decisions=[decision_to_dict(entry) for entry in self.decisions],
        )

    @classmethod
    def restore(cls, snapshot: ControllerSnapshot) -> "AdmissionController":
        """Rebuild a controller from a snapshot (warm restart).

        The restored controller re-validates the server set (Theorem 2
        is deterministic, so a snapshot that was constructible once
        always restores) and then reinstates the admitted sets, memoized
        demand curves, counters and decision ring verbatim -- no
        decision is replayed, so counters keep their totals.
        """
        from repro.tasks.serialization import task_from_dict

        controller = cls(
            TimeSlotTable.from_pattern(snapshot.table_pattern),
            [ServerSpec(vm_id, pi, theta) for vm_id, pi, theta in snapshot.servers],
            incremental=snapshot.incremental,
            max_decisions=snapshot.max_decisions,
        )
        for vm_id in sorted(snapshot.admitted):
            if vm_id not in controller._admitted:
                raise ValueError(
                    f"snapshot admits tasks into VM {vm_id}, which has no "
                    "server in the snapshot's configuration"
                )
            admitted = controller._admitted[vm_id]
            for data in snapshot.admitted[vm_id]:
                admitted.add(task_from_dict(data))
        for vm_id in sorted(snapshot.memo):
            entry = snapshot.memo[vm_id]
            signature = tuple(
                (int(triple[0]), int(triple[1]), int(triple[2]))
                for triple in entry["signature"]
            )
            state = _VMDemandState(signature)
            state.points = np.asarray(entry["points"], dtype=np.int64)
            state.demand = np.asarray(entry["demand"], dtype=np.int64)
            state.covered = int(entry["covered"])
            controller._state[vm_id] = state
        controller.admitted_count = snapshot.admitted_count
        controller.rejected_count = snapshot.rejected_count
        controller.dropped_decisions = snapshot.dropped_decisions
        controller.decisions = deque(
            decision_from_dict(entry) for entry in snapshot.decisions
        )
        return controller

    def _require_vm(self, vm_id: int) -> None:
        if vm_id not in self._servers:
            raise KeyError(
                f"no server configured for VM {vm_id}; "
                f"configured: {sorted(self._servers)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController(vms={sorted(self._servers)}, "
            f"admitted={self.admitted_count}, rejected={self.rejected_count})"
        )

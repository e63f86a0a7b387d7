"""Sharded admission controllers.

The service partitions the system's VMs over ``N`` shards; each shard
owns one :class:`~repro.core.admission.AdmissionController` restricted
to its VM group.  Per-VM Theorem-4 admission only reads that VM's
admitted set and server, so shards never need to communicate -- and the
decision stream of any single VM is identical for every shard count
(the property the bench byte-compares).

Dropping servers from a Theorem-2-feasible set keeps it feasible (the
global demand is a sum of non-negative per-server terms), so each
shard's subset controller always constructs once the *full* server set
has been validated by the service front-end.

Shards live in the server process and are called on its event-loop
thread: a write is a direct call into the controller, with no thread
hop and no process boundary on the path.  A shard is built either
fresh from a :class:`ShardConfig` or warm from a
:class:`~repro.core.admission.ControllerSnapshot`.

Warm restarts and rebalancing round-trip through snapshots:
:meth:`ShardPool.snapshot` merges the per-shard snapshots into one
full-system image, and :func:`partition_snapshot` splits such an image
back into per-shard warm-start payloads for any new shard count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.admission import (
    AdmissionController,
    ControllerSnapshot,
    decision_to_dict,
)
from repro.core.gsched import ServerSpec
from repro.core.timeslot import TimeSlotTable
from repro.tasks.serialization import task_from_dict, task_to_dict


def partition_vms(vm_ids: Sequence[int], num_shards: int) -> List[List[int]]:
    """Deterministic round-robin split of the sorted VM ids.

    Shard ``i`` owns ``sorted(vm_ids)[i::num_shards]``; every shard
    count yields the same per-VM assignment function given the same VM
    set, so rebalancing is a pure repartition of snapshots.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    ordered = sorted(vm_ids)
    return [ordered[index::num_shards] for index in range(num_shards)]


def check_shard_count(num_shards: int, vm_count: int) -> None:
    """Reject a shard count outside ``[1, vm_count]``.

    Every shard owns at least one VM; more would only build idle
    controllers.  :class:`ShardPool` enforces this at construction and
    the service's ``rebalance`` checks it before stopping the live pool.
    """
    if not 1 <= num_shards <= vm_count:
        raise ValueError(
            f"shards must lie in [1, {vm_count}] (the configured VM "
            f"count), got {num_shards}"
        )


@dataclass
class ShardConfig:
    """Everything one shard needs to build its subset controller."""

    table_pattern: List[int]
    servers: List[Tuple[int, int, int]]
    incremental: bool = True
    max_decisions: Optional[int] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "table_pattern": list(self.table_pattern),
            "servers": [list(entry) for entry in self.servers],
            "incremental": self.incremental,
            "max_decisions": self.max_decisions,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ShardConfig":
        max_decisions = payload["max_decisions"]
        return cls(
            table_pattern=[int(bit) for bit in payload["table_pattern"]],
            servers=[
                (int(entry[0]), int(entry[1]), int(entry[2]))
                for entry in payload["servers"]
            ],
            incremental=bool(payload["incremental"]),
            max_decisions=None if max_decisions is None else int(max_decisions),
        )


class AdmissionShard:
    """One VM group's controller plus its request handler.

    ``handle`` speaks dicts in, dicts out; the server's dispatcher owns
    protocol framing and sequencing.
    """

    def __init__(
        self,
        config: Optional[ShardConfig] = None,
        snapshot: Optional[ControllerSnapshot] = None,
    ) -> None:
        if (config is None) == (snapshot is None):
            raise ValueError("exactly one of config/snapshot must be given")
        if snapshot is not None:
            self.controller = AdmissionController.restore(snapshot)
        else:
            assert config is not None
            self.controller = AdmissionController(
                TimeSlotTable.from_pattern(config.table_pattern),
                [
                    ServerSpec(vm_id, pi, theta)
                    for vm_id, pi, theta in config.servers
                ],
                incremental=config.incremental,
                max_decisions=config.max_decisions,
            )

    @property
    def vm_ids(self) -> List[int]:
        return sorted(self.controller._servers)

    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message["op"]
        if op == "admit":
            return self._admit(message)
        if op == "withdraw":
            return self._withdraw(message)
        if op == "population":
            return self._population()
        if op == "snapshot":
            return {"ok": True, "snapshot": self.controller.snapshot().to_payload()}
        if op == "counters":
            return {
                "ok": True,
                "counters": {
                    "admitted_count": self.controller.admitted_count,
                    "rejected_count": self.controller.rejected_count,
                    "dropped_decisions": self.controller.dropped_decisions,
                    "retained_decisions": len(self.controller.decisions),
                },
            }
        return {
            "ok": False,
            "error": {"kind": "internal", "message": f"unknown shard op {op!r}"},
        }

    def _admit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            task = task_from_dict(message["task"])
        except (ValueError, TypeError) as exc:
            return {
                "ok": False,
                "error": {"kind": "protocol", "message": str(exc)},
            }
        decision = self.controller.try_admit(task)
        return {"ok": True, "decision": decision_to_dict(decision)}

    def _withdraw(self, message: Dict[str, Any]) -> Dict[str, Any]:
        vm_id = int(message["vm_id"])
        task_name = str(message["task_name"])
        if vm_id not in self.controller._servers:
            return {
                "ok": False,
                "error": {
                    "kind": "unknown_vm",
                    "message": f"no server configured for VM {vm_id}",
                    "vm_id": vm_id,
                },
            }
        try:
            removed = self.controller.withdraw(vm_id, task_name)
        except KeyError:
            return {
                "ok": False,
                "error": {
                    "kind": "unknown_task",
                    "message": (
                        f"no admitted task named {task_name!r} in VM {vm_id}"
                    ),
                    "vm_id": vm_id,
                    "task_name": task_name,
                },
            }
        return {"ok": True, "task": task_to_dict(removed)}

    def _population(self) -> Dict[str, Any]:
        population = {
            str(vm_id): [
                task_to_dict(task)
                for task in self.controller.admitted_tasks(vm_id).tasks
            ]
            for vm_id in self.vm_ids
        }
        return {"ok": True, "population": population}


class ShardHandle:
    """One shard on the server's event-loop thread, plus its load count.

    ``call`` is the single seam every shard request goes through.  It
    runs on the event-loop thread only, so no lock guards the
    controller.
    """

    def __init__(
        self,
        index: int,
        vm_ids: List[int],
        config: Optional[ShardConfig] = None,
        snapshot: Optional[ControllerSnapshot] = None,
    ) -> None:
        self.index = index
        self.vm_ids = list(vm_ids)
        #: Requests parked at their yield before calling this shard,
        #: maintained by the server dispatcher; shedding reads it.
        self.inflight = 0
        self._shard: Optional[AdmissionShard] = AdmissionShard(
            config=config, snapshot=snapshot
        )

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Request/reply on the shard's controller."""
        if self._shard is None:
            raise RuntimeError(f"shard {self.index} is stopped")
        return self._shard.handle(message)

    def stop(self) -> None:
        self._shard = None


def merge_snapshots(
    snapshots: Sequence[ControllerSnapshot],
) -> ControllerSnapshot:
    """Fold per-shard snapshots into one full-system snapshot.

    Admitted sets and memo states are disjoint by construction (each VM
    lives on exactly one shard) and merge keyed by VM id; counters sum.
    Decision rings concatenate in shard order -- the service's seq-keyed
    log, not the merged ring, is the authoritative global history.
    """
    if not snapshots:
        raise ValueError("cannot merge zero snapshots")
    first = snapshots[0]
    servers: Dict[int, Tuple[int, int, int]] = {}
    admitted: Dict[int, List[Dict[str, Any]]] = {}
    memo: Dict[int, Dict[str, Any]] = {}
    decisions: List[Dict[str, Any]] = []
    admitted_count = rejected_count = dropped = 0
    for snapshot in snapshots:
        if snapshot.table_pattern != first.table_pattern:
            raise ValueError("snapshots disagree on the time slot table")
        for entry in snapshot.servers:
            if entry[0] in servers:
                raise ValueError(f"VM {entry[0]} appears in two snapshots")
            servers[entry[0]] = entry
        for vm_id, tasks in snapshot.admitted.items():
            admitted[vm_id] = list(tasks)
        for vm_id, entry_state in snapshot.memo.items():
            memo[vm_id] = dict(entry_state)
        decisions.extend(snapshot.decisions)
        admitted_count += snapshot.admitted_count
        rejected_count += snapshot.rejected_count
        dropped += snapshot.dropped_decisions
    return ControllerSnapshot(
        table_pattern=list(first.table_pattern),
        servers=[servers[vm_id] for vm_id in sorted(servers)],
        incremental=first.incremental,
        max_decisions=first.max_decisions,
        admitted={vm_id: admitted[vm_id] for vm_id in sorted(admitted)},
        memo={vm_id: memo[vm_id] for vm_id in sorted(memo)},
        admitted_count=admitted_count,
        rejected_count=rejected_count,
        dropped_decisions=dropped,
        decisions=decisions,
    )


def partition_snapshot(
    snapshot: ControllerSnapshot, num_shards: int
) -> List[ControllerSnapshot]:
    """Split a full-system snapshot into per-shard warm-start images.

    The analytic state (admitted sets, memoized curves) partitions
    exactly; counters and the decision ring stay with the merged image
    (the service log owns history), so each shard restarts with zeroed
    shard-local counters.
    """
    vm_ids = [entry[0] for entry in snapshot.servers]
    groups = partition_vms(vm_ids, num_shards)
    parts: List[ControllerSnapshot] = []
    for group in groups:
        chosen = set(group)
        parts.append(
            ControllerSnapshot(
                table_pattern=list(snapshot.table_pattern),
                servers=[
                    entry for entry in snapshot.servers if entry[0] in chosen
                ],
                incremental=snapshot.incremental,
                max_decisions=snapshot.max_decisions,
                admitted={
                    vm_id: list(tasks)
                    for vm_id, tasks in sorted(snapshot.admitted.items())
                    if vm_id in chosen
                },
                memo={
                    vm_id: dict(entry)
                    for vm_id, entry in sorted(snapshot.memo.items())
                    if vm_id in chosen
                },
                admitted_count=0,
                rejected_count=0,
                dropped_decisions=0,
                decisions=[],
            )
        )
    return parts


class ShardPool:
    """The set of live shards plus the VM-to-shard routing map."""

    def __init__(
        self,
        table_pattern: List[int],
        servers: Sequence[Tuple[int, int, int]],
        num_shards: int,
        *,
        incremental: bool = True,
        max_decisions: Optional[int] = None,
        warm_from: Optional[ControllerSnapshot] = None,
    ) -> None:
        self.table_pattern = list(table_pattern)
        self.servers = [tuple(entry) for entry in servers]
        self.incremental = incremental
        self.max_decisions = max_decisions
        by_vm = {entry[0]: entry for entry in self.servers}
        if len(by_vm) != len(self.servers):
            raise ValueError("duplicate VM id in server set")
        check_shard_count(num_shards, len(by_vm))
        groups = partition_vms(sorted(by_vm), num_shards)
        self.shards: List[ShardHandle] = []
        self._route: Dict[int, ShardHandle] = {}
        warm_parts: Optional[List[ControllerSnapshot]] = None
        if warm_from is not None:
            warm_parts = partition_snapshot(warm_from, num_shards)
        for index, group in enumerate(groups):
            if warm_parts is not None:
                handle = ShardHandle(index, group, snapshot=warm_parts[index])
            else:
                handle = ShardHandle(
                    index,
                    group,
                    config=ShardConfig(
                        table_pattern=self.table_pattern,
                        servers=[by_vm[vm_id] for vm_id in group],
                        incremental=incremental,
                        max_decisions=max_decisions,
                    ),
                )
            self.shards.append(handle)
            for vm_id in group:
                self._route[vm_id] = handle

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, vm_id: int) -> Optional[ShardHandle]:
        return self._route.get(vm_id)

    def snapshot(self) -> ControllerSnapshot:
        """Merged full-system snapshot across every shard."""
        snapshots = []
        for handle in self.shards:
            reply = handle.call({"op": "snapshot"})
            snapshots.append(ControllerSnapshot.from_payload(reply["snapshot"]))
        return merge_snapshots(snapshots)

    def population(self) -> Dict[int, List[Dict[str, Any]]]:
        """Current admitted task dicts per VM, merged across shards."""
        merged: Dict[int, List[Dict[str, Any]]] = {}
        for handle in self.shards:
            reply = handle.call({"op": "population"})
            for vm_text, tasks in sorted(reply["population"].items()):
                merged[int(vm_text)] = list(tasks)
        return merged

    def counters(self) -> Dict[str, int]:
        totals = {
            "admitted_count": 0,
            "rejected_count": 0,
            "dropped_decisions": 0,
            "retained_decisions": 0,
        }
        for handle in self.shards:
            reply = handle.call({"op": "counters"})
            for key in sorted(totals):
                totals[key] += reply["counters"][key]
        return totals

    def stop(self) -> None:
        for handle in self.shards:
            handle.stop()
        self.shards = []
        self._route = {}

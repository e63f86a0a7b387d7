"""The admission server: asyncio front-end over sharded controllers.

Request flow
------------

* ``admit``/``withdraw`` route to the owning VM's shard
  (:class:`~repro.serve.shard.ShardPool`) in per-connection FIFO
  order.  Shards live on the event-loop thread: the request yields the
  loop once, counted as in flight on its shard, then calls the
  controller directly.  Every outcome is appended to the seq-keyed
  decision log as one canonical-JSON line.  ``snapshot``, ``stats``
  and ``rebalance`` also run on the loop thread, so no shard state is
  ever touched from another thread.
* ``analyze`` requests are parsed on arrival and join the pending
  batch.  The first request to join an empty batch schedules its flush
  for the next loop turn (``loop.call_soon``), so the batch holds every
  analyze parked before the loop turns and none waits for a timer;
  requests parked while a flush runs join the next batch, so batches
  still grow under load.  A flush runs on the loop thread: it
  copies the admitted population, materializes one
  :class:`repro.api.System` per request and submits the whole column
  through :func:`repro.api.analyze_many`, which packs the column into
  the batched analysis kernels -- one numpy pass for the batch instead
  of one test per request.  ``epoch`` counts the flushed
  batches.  The server starts no thread and runs no timer task.
* Overload sheds load instead of queueing without bound: when a
  shard's in-flight count (requests parked at their yield) reaches
  ``queue_limit`` the request is rejected with a ``shedding`` error
  and the rejection feeds the per-VM :class:`~repro.core.manager.DegradationPolicy` streak
  (``slot`` = the shed request's ``seq``, so the quarantine log, like
  the decision log, is a pure function of the request stream); a VM
  that keeps flooding is quarantined
  (GearV-style: LO-priority churn is dropped so admitted HI
  guarantees keep holding) and rejected immediately thereafter.
* A request whose handling raises unexpectedly is answered with an
  ``internal`` error and its connection keeps serving.

Construction validates the *full* server set against Theorem 2 once,
raising the typed
:class:`~repro.core.admission.ConfigurationError` (carrying
``failing_t`` and the server triples) -- a structured startup failure,
not a 500.  Shards then hold per-group subset controllers, which stay
feasible by monotonicity.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from collections import deque

from repro.core.admission import ConfigurationError, result_to_dict
from repro.core.manager import DegradationPolicy
from repro.core.timeslot import TimeSlotTable
from repro.serve.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    format_http_response,
    gsched_result_to_dict,
    http_path_to_op,
    http_status_for,
    looks_like_http,
    ok_response,
    parse_http_request_line,
    validate_request,
)
from repro.serve.shard import ShardHandle, ShardPool, check_shard_count
from repro.tasks.task import IOTask, TaskKind
from repro.tasks.serialization import canonical_json, task_from_dict
from repro.tasks.taskset import TaskSet


@dataclass
class ServeConfig:
    """Everything the admission server needs to run."""

    table_pattern: List[int]
    servers: List[Tuple[int, int, int]]
    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    incremental: bool = True
    #: Per-shard decision-ring bound (see AdmissionController).
    max_decisions: Optional[int] = 4096
    #: Per-shard in-flight bound; beyond it requests are shed.
    queue_limit: int = 64
    #: Consecutive sheds before a VM is quarantined (DegradationPolicy).
    reject_limit: int = 16
    stall_limit: int = 3
    #: Bound on the service decision log (None = unbounded).
    log_limit: Optional[int] = 65536
    name: str = "serve"

    @classmethod
    def from_system_payload(
        cls, payload: Dict[str, Any], **overrides: Any
    ) -> "ServeConfig":
        """Build from a system JSON object (table_pattern + servers)."""
        for key in ("table_pattern", "servers"):
            if key not in payload:
                raise ValueError(f"system object missing {key!r}")
        return cls(
            table_pattern=[int(bit) for bit in payload["table_pattern"]],
            servers=[
                (int(entry[0]), int(entry[1]), int(entry[2]))
                for entry in payload["servers"]
            ],
            **overrides,
        )


@dataclass
class _PendingAnalyze:
    seq: int
    #: The request's what-if tasks, parsed on arrival.
    tasks: List[IOTask]
    future: "asyncio.Future[Dict[str, Any]]" = field(repr=False, default=None)  # type: ignore[assignment]


class AdmissionServer:
    """Long-running admission service over one system configuration."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        table = TimeSlotTable.from_pattern(config.table_pattern)
        pairs = [
            (pi, theta)
            for _vm_id, pi, theta in sorted(config.servers)
        ]
        from repro.analysis.gsched_test import gsched_schedulable

        result = gsched_schedulable(table, pairs)
        if not result.schedulable:
            raise ConfigurationError(
                "server set fails the global (Theorem-2) test at "
                f"t={result.failing_t}; the service cannot start",
                failing_t=result.failing_t,
                servers=sorted(config.servers),
            )
        self.pool = ShardPool(
            config.table_pattern,
            config.servers,
            config.shards,
            incremental=config.incremental,
            max_decisions=config.max_decisions,
        )
        self.policy = DegradationPolicy(
            stall_limit=config.stall_limit, reject_limit=config.reject_limit
        )
        #: Index of the last flushed analyze batch.
        self.epoch = 0
        self.log: Deque[Tuple[int, str]] = deque()
        self.dropped_log_entries = 0
        self.counters: Dict[str, int] = {
            "requests": 0,
            "admits": 0,
            "admitted": 0,
            "rejected": 0,
            "withdraws": 0,
            "analyzes": 0,
            "analyze_batches": 0,
            "shed": 0,
            "quarantined_rejects": 0,
            "protocol_errors": 0,
            "internal_errors": 0,
        }
        self.port: Optional[int] = None
        self._pending: List[_PendingAnalyze] = []
        self._server: Optional[asyncio.AbstractServer] = None
        #: Live connection handlers and their writers, closed by stop().
        self._connections: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown_event: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        assert self._shutdown_event is not None, "start() first"
        await self._shutdown_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop listening, close every live connection and wait for its
        handler to finish, so none is left to be cancelled at loop
        teardown."""
        self._flush_epoch()  # answer any straggling analyze futures
        if self._server is not None:
            self._server.close()
        for writer in self._connections.values():
            writer.close()
        await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self.pool.stop()

    # -- connection handling ------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        assert handler is not None
        self._connections[handler] = writer
        try:
            first = await reader.readline()
            if not first:
                return
            if looks_like_http(first):
                await self._serve_http(first, reader, writer)
            else:
                await self._serve_lines(first, reader, writer)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            del self._connections[handler]

    async def _serve_lines(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        line: bytes = first
        while line.strip():
            response, shutdown = await self._dispatch_frame(line)
            writer.write(encode_message(response))
            await writer.drain()
            if shutdown:
                assert self._shutdown_event is not None
                self._shutdown_event.set()
                return
            line = await reader.readline()

    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            method, path = parse_http_request_line(first)
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            body = await reader.readexactly(length) if length else b"{}"
            op = http_path_to_op(method, path)
            message = decode_message(body) if body.strip() else {}
            message["op"] = op
            message = validate_request(message)
        except (ProtocolError, ValueError, asyncio.IncompleteReadError) as exc:
            self.counters["protocol_errors"] += 1
            response = error_response(0, "protocol", str(exc))
            writer.write(format_http_response(response, http_status_for(response)))
            await writer.drain()
            return
        response, shutdown = await self._dispatch_validated(message)
        writer.write(format_http_response(response, http_status_for(response)))
        await writer.drain()
        if shutdown:
            assert self._shutdown_event is not None
            self._shutdown_event.set()

    async def _dispatch_frame(
        self, line: bytes
    ) -> Tuple[Dict[str, Any], bool]:
        try:
            message = validate_request(decode_message(line))
        except ProtocolError as exc:
            self.counters["protocol_errors"] += 1
            return error_response(0, "protocol", str(exc)), False
        return await self._dispatch_validated(message)

    # -- dispatch -----------------------------------------------------------

    async def _dispatch_validated(
        self, message: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bool]:
        op = message["op"]
        seq = message["seq"]
        self.counters["requests"] += 1
        try:
            if op == "admit":
                return await self._admit(seq, message), False
            if op == "withdraw":
                return await self._withdraw(seq, message), False
            if op == "analyze":
                return await self._analyze(seq, message), False
            if op == "snapshot":
                return await self._snapshot(seq), False
            if op == "rebalance":
                return await self._rebalance(seq, message), False
            if op == "stats":
                return await self._stats(seq), False
            if op == "log":
                return ok_response(seq, log=self.decision_log_lines()), False
            if op == "ping":
                return ok_response(seq, epoch=self.epoch), False
            # validate_request() restricts op to OPS, so this is shutdown.
            return ok_response(seq, shutting_down=True), True
        except Exception as exc:  # answer, never drop the connection
            self.counters["internal_errors"] += 1
            return (
                error_response(seq, "internal", f"{type(exc).__name__}: {exc}"),
                False,
            )

    async def _admit(self, seq: int, message: Dict[str, Any]) -> Dict[str, Any]:
        self.counters["admits"] += 1
        task = message["task"]
        vm_id = task.get("vm_id", 0)
        shard = self.pool.shard_for(vm_id)
        if shard is None:
            return error_response(
                seq,
                "unknown_vm",
                f"no server configured for VM {vm_id}",
                vm_id=vm_id,
            )
        if self.policy.vm_quarantined(vm_id):
            self.counters["quarantined_rejects"] += 1
            return error_response(
                seq,
                "quarantined",
                f"VM {vm_id} is quarantined after sustained overload",
                vm_id=vm_id,
            )
        if shard.inflight >= self.config.queue_limit:
            self.counters["shed"] += 1
            tripped = self.policy.note_rejection(vm_id, seq)
            return error_response(
                seq,
                "shedding",
                f"shard {shard.index} is saturated "
                f"({shard.inflight} in flight); retry later",
                vm_id=vm_id,
                quarantined=tripped,
            )
        reply = await self._call_shard(shard, vm_id, {"op": "admit", "task": task})
        if not reply.get("ok"):
            error = reply.get("error", {})
            return error_response(
                seq,
                error.get("kind", "internal"),
                error.get("message", "shard error"),
            )
        self.policy.note_accept(vm_id)
        decision = reply["decision"]
        if decision["schedulable"]:
            self.counters["admitted"] += 1
        else:
            self.counters["rejected"] += 1
        self._log_entry(seq, {"op": "admit", "decision": decision})
        return ok_response(seq, decision=decision)

    async def _withdraw(
        self, seq: int, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        self.counters["withdraws"] += 1
        vm_id = message["vm_id"]
        task_name = str(message["task_name"])
        shard = self.pool.shard_for(vm_id)
        if shard is None:
            return error_response(
                seq,
                "unknown_vm",
                f"no server configured for VM {vm_id}",
                vm_id=vm_id,
            )
        reply = await self._call_shard(
            shard, vm_id, {"op": "withdraw", "vm_id": vm_id, "task_name": task_name}
        )
        self._log_entry(
            seq,
            {
                "op": "withdraw",
                "vm_id": vm_id,
                "task_name": task_name,
                "ok": bool(reply.get("ok")),
            },
        )
        if not reply.get("ok"):
            error = reply.get("error", {})
            return error_response(
                seq,
                error.get("kind", "internal"),
                error.get("message", "shard error"),
                vm_id=vm_id,
                task_name=task_name,
            )
        return ok_response(seq, task=reply["task"])

    async def _analyze(self, seq: int, message: Dict[str, Any]) -> Dict[str, Any]:
        self.counters["analyzes"] += 1
        try:
            tasks = [task_from_dict(data) for data in message.get("tasks", [])]
        except (ValueError, TypeError) as exc:
            self.counters["protocol_errors"] += 1
            return error_response(seq, "protocol", str(exc))
        for task in tasks:
            if self.pool.shard_for(task.vm_id) is None:
                return error_response(
                    seq,
                    "unknown_vm",
                    f"no server configured for VM {task.vm_id}",
                    vm_id=task.vm_id,
                )
        assert self._loop is not None
        entry = _PendingAnalyze(seq=seq, tasks=tasks)
        entry.future = self._loop.create_future()
        if not self._pending:
            self._loop.call_soon(self._flush_epoch)
        self._pending.append(entry)
        return await entry.future

    async def _snapshot(self, seq: int) -> Dict[str, Any]:
        return ok_response(seq, snapshot=self.pool.snapshot().to_payload())

    async def _rebalance(self, seq: int, message: Dict[str, Any]) -> Dict[str, Any]:
        shards = message["shards"]
        try:
            # Checked before the live pool stops: a rejected count leaves
            # it serving unchanged.
            check_shard_count(shards, len(self.config.servers))
        except ValueError as error:
            return error_response(seq, "protocol", str(error))
        merged = self.pool.snapshot()
        self.pool.stop()
        self.pool = ShardPool(
            self.config.table_pattern,
            self.config.servers,
            shards,
            incremental=self.config.incremental,
            max_decisions=self.config.max_decisions,
            warm_from=merged,
        )
        return ok_response(seq, shards=shards)

    async def _stats(self, seq: int) -> Dict[str, Any]:
        quarantined = [
            vm_id
            for vm_id, _pi, _theta in sorted(self.config.servers)
            if self.policy.vm_quarantined(vm_id)
        ]
        return ok_response(
            seq,
            stats={
                "epoch": self.epoch,
                "shards": self.pool.num_shards,
                "counters": {
                    key: self.counters[key] for key in sorted(self.counters)
                },
                "pool": self.pool.counters(),
                "quarantined_vms": quarantined,
                "quarantine_log": [
                    {
                        "seq": event.slot,
                        "category": event.category,
                        "target": event.target,
                        "reason": event.reason,
                    }
                    for event in self.policy.log
                ],
                "log_entries": len(self.log),
                "dropped_log_entries": self.dropped_log_entries,
            },
        )

    async def _call_shard(
        self, shard: ShardHandle, vm_id: int, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Call ``vm_id``'s shard after yielding the loop once.

        The request counts as in flight on its shard while parked, which
        is what ``queue_limit`` shedding reads; the yield also lets other
        connections run between the requests of one buffered burst.  A
        ``rebalance`` may replace the pool while the request is parked,
        so the shard is looked up again after the yield.
        """
        shard.inflight += 1
        try:
            await asyncio.sleep(0)
        finally:
            shard.inflight -= 1
        current = self.pool.shard_for(vm_id)
        assert current is not None  # the VM set never changes
        return current.call(message)

    # -- analyze batching -----------------------------------------------------

    def _flush_epoch(self) -> None:
        """Answer the pending analyze batch in one submission."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        self.epoch += 1
        self.counters["analyze_batches"] += 1
        try:
            results = self._run_analyze_batch(
                self.pool.population(), [entry.tasks for entry in pending]
            )
        except Exception as exc:  # surface, never wedge the futures
            for entry in pending:
                if not entry.future.done():
                    entry.future.set_result(
                        error_response(entry.seq, "internal", str(exc))
                    )
            return
        for entry, result in zip(pending, results):
            if isinstance(result, str):
                self.counters["protocol_errors"] += 1
                response = error_response(entry.seq, "protocol", result)
            else:
                response = ok_response(entry.seq, epoch=self.epoch, report=result)
            if not entry.future.done():
                entry.future.set_result(response)

    def _run_analyze_batch(
        self,
        population: Dict[int, List[Dict[str, Any]]],
        extras: List[List[IOTask]],
    ) -> List[Union[Dict[str, Any], str]]:
        """One batch's analyze column through ``repro.api.analyze_many``.

        Returns one report dict per request, or the message of the
        ``ValueError`` its system raised when built (a what-if task whose
        name its VM already holds), so one bad request fails alone.
        """
        from repro.api import (
            ServerConfig,
            SystemConfig,
            analyze_many,
            build_system,
        )

        base_tasks = [
            task_from_dict(data)
            for vm_id in sorted(population)
            for data in population[vm_id]
        ]
        server_configs = [
            ServerConfig(vm_id=vm_id, pi=pi, theta=theta)
            for vm_id, pi, theta in sorted(self.config.servers)
        ]
        systems: Dict[int, Any] = {}
        aliases: Dict[int, Dict[str, str]] = {}
        errors: Dict[int, str] = {}
        for index, extra in enumerate(extras):
            name = f"{self.config.name}.epoch{self.epoch}.{index}"
            try:
                tasks, aliases[index] = _distinct_names(base_tasks + extra, name)
                systems[index] = build_system(
                    SystemConfig(
                        tasks=tasks,
                        name=name,
                        servers=server_configs,
                        table_pattern=self.config.table_pattern,
                        stagger=False,
                    )
                )
            except ValueError as exc:
                errors[index] = str(exc)
        reports = dict(zip(systems, analyze_many(list(systems.values()))))
        return [
            errors[index]
            if index in errors
            else self._report_to_dict(reports[index], aliases[index])
            for index in range(len(extras))
        ]

    @staticmethod
    def _report_to_dict(report: Any, aliases: Dict[str, str]) -> Dict[str, Any]:
        local_results = {}
        for vm_id in sorted(report.local_results):
            result = result_to_dict(report.local_results[vm_id])
            assert result is not None
            result["task_names"] = [
                aliases.get(name, name) for name in result["task_names"]
            ]
            local_results[str(vm_id)] = result
        return {
            "schedulable": report.schedulable,
            "reason": report.reason,
            "failing_t": report.failing_t,
            "global_result": gsched_result_to_dict(report.global_result),
            "local_results": local_results,
        }

    # -- decision log -------------------------------------------------------

    def _log_entry(self, seq: int, entry: Dict[str, Any]) -> None:
        payload = {"seq": seq}
        payload.update(entry)
        text = canonical_json(payload)
        if (
            self.config.log_limit is not None
            and len(self.log) >= self.config.log_limit
        ):
            self.log.popleft()
            self.dropped_log_entries += 1
        self.log.append((seq, text))

    def decision_log_lines(self) -> List[str]:
        """Canonical decision-log lines, sorted by ``seq``.

        Sorting makes the dump a pure function of the per-VM request
        streams: identical for every shard count and every connection
        interleaving, which is what the CI smoke job byte-compares.
        """
        return [text for _seq, text in sorted(self.log)]


def _distinct_names(
    tasks: List[IOTask], set_name: str
) -> Tuple[List[IOTask], Dict[str, str]]:
    """``tasks`` with no name repeated across VMs, and alias -> name.

    Admission keeps task names unique per VM, but a system's task set
    needs them unique overall.  A name repeated within one VM raises the
    task set's own ``ValueError``.  A run-time task whose name a task of
    another VM already holds is renamed to an alias no task uses; the
    reply maps the alias back.  Without repeats the tasks pass through
    unchanged.
    """
    by_vm: Dict[int, TaskSet] = {}
    owners: Dict[str, int] = {}
    taken = {task.name for task in tasks}
    aliases: Dict[str, str] = {}
    renamed: List[IOTask] = []
    for task in tasks:
        by_vm.setdefault(task.vm_id, TaskSet(name=set_name)).add(task)
        owner = owners.setdefault(task.name, task.vm_id)
        if owner != task.vm_id and task.kind == TaskKind.RUNTIME:
            alias = f"{task.name}@vm{task.vm_id}"
            while alias in taken:
                alias += "'"
            taken.add(alias)
            aliases[alias] = task.name
            task = replace(task, name=alias)
        renamed.append(task)
    return renamed, aliases


def load_system_file(path: str) -> Dict[str, Any]:
    """Read a system JSON object (table_pattern + servers) from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("system file must hold a JSON object")
    return payload

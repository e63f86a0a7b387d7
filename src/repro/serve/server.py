"""The admission server: asyncio front-end over sharded controllers.

Request flow
------------

* ``admit``/``withdraw`` route to the owning VM's shard
  (:class:`~repro.serve.shard.ShardPool`) and execute immediately, in
  per-connection FIFO order.  Every outcome is appended to the
  seq-keyed decision log as one canonical-JSON line.
* ``analyze`` requests join the *current scheduling epoch* and are
  flushed as one batch: the epoch loop materializes one
  :class:`repro.api.System` per request against the epoch-consistent
  population and submits the whole column through
  :func:`repro.api.analyze_many`, which packs the whole column into
  the batched analysis kernels -- one numpy pass for the batch instead
  of one engine dispatch per request.
* Overload sheds load instead of queueing without bound: when a
  shard's in-flight count reaches ``queue_limit`` the request is
  rejected with a ``shedding`` error and the rejection feeds the
  per-VM :class:`~repro.core.manager.DegradationPolicy` streak
  (``slot`` = epoch index); a VM that keeps flooding is quarantined
  (GearV-style: LO-priority churn is dropped so admitted HI
  guarantees keep holding) and rejected immediately thereafter.

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
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

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
from repro.serve.shard import ShardPool
from repro.tasks.serialization import canonical_json, task_from_dict


@dataclass
class ServeConfig:
    """Everything the admission server needs to run."""

    table_pattern: List[int]
    servers: List[Tuple[int, int, int]]
    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    #: Shard backend: ``"process"`` (worker processes) or ``"inline"``.
    backend: str = "process"
    incremental: bool = True
    #: Per-shard decision-ring bound (see AdmissionController).
    max_decisions: Optional[int] = 4096
    #: Scheduling-epoch length in seconds: analyze requests arriving
    #: within one epoch are answered from one consistent batch.
    epoch_interval: float = 0.01
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
    message: Dict[str, Any]
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
            backend=config.backend,
            incremental=config.incremental,
            max_decisions=config.max_decisions,
        )
        self.policy = DegradationPolicy(
            stall_limit=config.stall_limit, reject_limit=config.reject_limit
        )
        #: Scheduling epoch counter; the DegradationPolicy's time base.
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
        }
        self.port: Optional[int] = None
        self._pending: List[_PendingAnalyze] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._epoch_task: Optional["asyncio.Task[None]"] = None
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
        self._epoch_task = asyncio.create_task(self._epoch_loop())

    async def serve_until_shutdown(self) -> None:
        assert self._shutdown_event is not None, "start() first"
        await self._shutdown_event.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._epoch_task is not None:
            self._epoch_task.cancel()
            try:
                await self._epoch_task
            except asyncio.CancelledError:
                pass
            self._epoch_task = None
        await self._flush_epoch()  # answer any straggling analyze futures
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        assert self._loop is not None
        await self._loop.run_in_executor(None, self.pool.stop)

    # -- connection handling ------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
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

    async def _admit(self, seq: int, message: Dict[str, Any]) -> Dict[str, Any]:
        self.counters["admits"] += 1
        task = message["task"]
        if not isinstance(task, dict):
            self.counters["protocol_errors"] += 1
            return error_response(seq, "protocol", "task must be an object")
        vm_id = int(task.get("vm_id", 0))
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
            tripped = self.policy.note_rejection(vm_id, self.epoch)
            return error_response(
                seq,
                "shedding",
                f"shard {shard.index} is saturated "
                f"({shard.inflight} in flight); retry next epoch",
                vm_id=vm_id,
                quarantined=tripped,
            )
        reply = await self._call_shard(shard, {"op": "admit", "task": task})
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
        vm_id = int(message["vm_id"])
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
            shard, {"op": "withdraw", "vm_id": vm_id, "task_name": task_name}
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
        assert self._loop is not None
        entry = _PendingAnalyze(seq=seq, message=message)
        entry.future = self._loop.create_future()
        self._pending.append(entry)
        return await entry.future

    async def _snapshot(self, seq: int) -> Dict[str, Any]:
        assert self._loop is not None
        merged = await self._loop.run_in_executor(None, self.pool.snapshot)
        return ok_response(seq, snapshot=merged.to_payload())

    async def _rebalance(self, seq: int, message: Dict[str, Any]) -> Dict[str, Any]:
        shards = int(message["shards"])
        if shards < 1:
            return error_response(
                seq, "protocol", f"shards must be >= 1, got {shards}"
            )
        assert self._loop is not None
        merged = await self._loop.run_in_executor(None, self.pool.snapshot)
        await self._loop.run_in_executor(None, self.pool.stop)
        self.pool = ShardPool(
            self.config.table_pattern,
            self.config.servers,
            shards,
            backend=self.config.backend,
            incremental=self.config.incremental,
            max_decisions=self.config.max_decisions,
            warm_from=merged,
        )
        return ok_response(seq, shards=shards)

    async def _stats(self, seq: int) -> Dict[str, Any]:
        assert self._loop is not None
        pool_counters = await self._loop.run_in_executor(
            None, self.pool.counters
        )
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
                "backend": self.config.backend,
                "counters": {
                    key: self.counters[key] for key in sorted(self.counters)
                },
                "pool": pool_counters,
                "quarantined_vms": quarantined,
                "quarantine_log": [
                    {
                        "slot": event.slot,
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
        self, shard: Any, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        assert self._loop is not None
        shard.inflight += 1
        try:
            return await self._loop.run_in_executor(None, shard.call, message)
        finally:
            shard.inflight -= 1

    # -- epoch batching -----------------------------------------------------

    async def _epoch_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.epoch_interval)
            await self._flush_epoch()

    async def _flush_epoch(self) -> None:
        """Advance the epoch; answer its analyze batch in one submission."""
        pending, self._pending = self._pending, []
        self.epoch += 1
        if not pending:
            return
        self.counters["analyze_batches"] += 1
        assert self._loop is not None
        try:
            population = await self._loop.run_in_executor(
                None, self.pool.population
            )
            payloads = [entry.message for entry in pending]
            reports = await self._loop.run_in_executor(
                None, self._run_analyze_batch, population, payloads
            )
        except Exception as exc:  # surface, never wedge the futures
            for entry in pending:
                if not entry.future.done():
                    entry.future.set_result(
                        error_response(entry.seq, "internal", str(exc))
                    )
            return
        for entry, report in zip(pending, reports):
            if not entry.future.done():
                entry.future.set_result(
                    ok_response(entry.seq, epoch=self.epoch, report=report)
                )

    def _run_analyze_batch(
        self,
        population: Dict[int, List[Dict[str, Any]]],
        payloads: List[Dict[str, Any]],
    ) -> List[Dict[str, Any]]:
        """One epoch's analyze column through ``repro.api.analyze_many``."""
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
        systems = []
        for index, payload in enumerate(payloads):
            extra = [task_from_dict(data) for data in payload.get("tasks", [])]
            systems.append(
                build_system(
                    SystemConfig(
                        tasks=base_tasks + extra,
                        name=f"{self.config.name}.epoch{self.epoch}.{index}",
                        servers=server_configs,
                        table_pattern=self.config.table_pattern,
                        stagger=False,
                    )
                )
            )
        reports = analyze_many(systems)
        return [self._report_to_dict(report) for report in reports]

    @staticmethod
    def _report_to_dict(report: Any) -> Dict[str, Any]:
        return {
            "schedulable": report.schedulable,
            "reason": report.reason,
            "failing_t": report.failing_t,
            "global_result": gsched_result_to_dict(report.global_result),
            "local_results": {
                str(vm_id): result_to_dict(report.local_results[vm_id])
                for vm_id in sorted(report.local_results)
            },
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


def load_system_file(path: str) -> Dict[str, Any]:
    """Read a system JSON object (table_pattern + servers) from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("system file must hold a JSON object")
    return payload

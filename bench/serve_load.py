"""Open-loop load against ``python -m repro.serve serve``.

One process, one asyncio thread, two connections; VM ``v`` always uses
connection ``v % 2`` so its requests reach the server in ``seq`` order.
Requests are sent on a Poisson schedule fixed before the run (an open
loop: a slow server does not slow the sender), and each is timed from
the moment it was *due*, so a stall also charges the requests queued
behind it.  How late the sender itself ran is reported beside it.

A measured run first launches servers only to time their set-up, then
drives one fresh server: a warm-up, a measured window at the
workload's nominal rate, and load steps at x1.5, x2.25, ... the
nominal rate until one fails the step rule.  A step passes when its p99 is at
most ``P99_LIMIT_MS``, no operation failed, and at least
``COMPLETE_SHARE`` of its requests completed within the step plus
``COMPLETE_GRACE_S``; the highest passing rate is ``max_rate_rps``.
The steps come last, so load shed or VMs quarantined by a failing step
cannot leak into the measured window.

Every admit/withdraw reply is checked against an untimed replay of the
same requests through an in-process :class:`repro.serve.AdmissionShard`.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs
import layers
import stats

CONNECTIONS = 2
NOMINAL_RATE = {"serve-admit": 1000.0, "serve-mixed": 500.0}
P99_LIMIT_MS = 100.0
COMPLETE_SHARE = 0.98
COMPLETE_GRACE_S = 0.5
#: Replies that mean the service refused or lost the request.
FAILURE_KINDS = ("shedding", "quarantined", "internal", "protocol", "unknown_vm")
#: Server launches per run whose set-up time is measured (median).
SETUP_PROBES = 5
#: Load steps run at these multiples of the nominal rate (x1.5 apart),
#: in order, until one fails the step rule.
STEP_FACTORS = (1.5, 2.25, 3.375, 5.0625)
#: How long a phase may take to drain its backlog before replies count
#: as missing.
DRAIN_TIMEOUT_S = 10.0
#: Lateness beyond which the sender counts a request as sent late.
LATE_S = 0.001
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Plan:
    """Phase lengths (seconds), scaled from the run's time budget."""

    warm: float
    window: float
    step: float

    @classmethod
    def for_budget(cls, seconds: float) -> "Plan":
        return cls(
            warm=max(0.5, 0.05 * seconds),
            window=max(1.0, 0.4 * seconds),
            step=max(0.5, 0.075 * seconds),
        )


# -- the server process ------------------------------------------------------


class ServerProcess:
    """A ``repro.serve serve`` process (optionally traced) on an ephemeral port."""

    def __init__(
        self, root: str, system_file: str, log_file: str, *, trace_file: Optional[str] = None
    ):
        serve_args = ["serve", "--system", system_file, "--shards", "1"]
        if trace_file is None:
            command = [sys.executable, "-m", "repro.serve"] + serve_args
        else:
            host = os.path.join(HERE, "serve_host.py")
            command = [sys.executable, host, "--trace-file", trace_file] + serve_args
        launched = time.perf_counter()
        with open(log_file, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command, cwd=root, stdout=subprocess.PIPE, stderr=log, text=True
            )
        line = self.process.stdout.readline() if self.process.stdout else ""
        if not line.startswith("LISTENING"):
            self.process.kill()
            self.process.communicate(timeout=30)
            with open(log_file, encoding="utf-8") as log:
                raise RuntimeError(f"server did not start: {line!r} {log.read()[-2000:]!r}")
        self.port = int(line.split()[2])
        self.control({"op": "ping", "seq": 0})
        self.setup_s = time.perf_counter() - launched

    def control(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One request/reply on a short-lived connection."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as conn:
            conn.sendall((json.dumps(message) + "\n").encode())
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    break
                reply += chunk
        return json.loads(reply)

    def pids(self) -> List[int]:
        """The server and every live descendant (the shard worker)."""
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        frontier.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
        return found

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of the process tree."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def cpu_seconds(self) -> float:
        """User + system CPU of the live process tree."""
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0.0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
                total += (int(fields[11]) + int(fields[12])) / ticks
            except (OSError, IndexError, ValueError):
                continue
        return total

    def stop(self) -> None:
        """Ask for shutdown; kill the tree if it does not exit."""
        if self.process.poll() is None:
            try:
                self.control({"op": "shutdown", "seq": 0})
            except (OSError, ValueError):
                pass
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            for pid in self.pids()[1:]:
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
            self.process.kill()
            self.process.communicate(timeout=30)


# -- the open-loop driver ----------------------------------------------------


@dataclass
class Record:
    seq: int
    vm: int
    message: Dict[str, Any]
    due: float
    sent: float = math.nan
    recv: float = math.nan
    raw: bytes = b""

    @cached_property
    def response(self) -> Optional[Dict[str, Any]]:
        return json.loads(self.raw) if self.raw else None

    @property
    def latency_ms(self) -> float:
        return (self.recv - self.due) * 1e3 if self.raw else math.inf


async def drive(
    host: str,
    port: int,
    requests: Sequence[inputs.Request],
    *,
    drain_timeout: float = DRAIN_TIMEOUT_S,
) -> Tuple[List[Record], float]:
    """Send ``requests`` on schedule (open loop); returns records and start.

    Replies are matched to requests in per-connection FIFO order and
    kept raw; parsing waits until the phase is over so the sender has
    the CPU while the clock runs.
    """
    streams = [await asyncio.open_connection(host, port) for _ in range(CONNECTIONS)]
    # Encoding happens inside this lead, before any request is due.
    start = time.perf_counter() + 0.05
    records = [
        Record(item.message["seq"], item.vm, item.message, start + item.offset)
        for item in requests
    ]
    lanes: List[List[Tuple[Record, bytes]]] = [[] for _ in streams]
    for item, record in zip(requests, records):
        line = (json.dumps(item.message, sort_keys=True, separators=(",", ":")) + "\n").encode()
        lanes[item.conn].append((record, line))

    async def send(lane: List[Tuple[Record, bytes]], writer: asyncio.StreamWriter) -> None:
        clock = time.perf_counter
        for record, line in lane:
            delay = record.due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            record.sent = clock()
            writer.write(line)
            await writer.drain()

    async def receive(lane: List[Tuple[Record, bytes]], reader: asyncio.StreamReader) -> None:
        for record, _line in lane:
            raw = await reader.readline()
            if not raw:
                return
            record.recv = time.perf_counter()
            record.raw = raw

    tasks = [
        asyncio.ensure_future(coro)
        for lane, (reader, writer) in zip(lanes, streams)
        for coro in (send(lane, writer), receive(lane, reader))
    ]
    last_due = max((record.due for record in records), default=start)
    deadline = last_due + drain_timeout
    _done, pending = await asyncio.wait(tasks, timeout=max(0.0, deadline - time.perf_counter()))
    for task in pending:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    for _reader, writer in streams:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return records, start


def failed(record: Record) -> bool:
    """A missing reply, or one the service refused or lost."""
    response = record.response
    if response is None:
        return True
    if response.get("ok"):
        return False
    return response.get("error", {}).get("kind") in FAILURE_KINDS


def lateness_ms(records: Sequence[Record]) -> float:
    """How late the sender ran at worst (ms); unsent requests are skipped."""
    sent = [record.sent - record.due for record in records if not math.isnan(record.sent)]
    return 1e3 * max(sent, default=0.0)


@dataclass
class StepResult:
    rate: float
    offered: int
    failed: int
    p99_ms: float
    completed_in_time: float
    late_ms: float

    @property
    def passed(self) -> bool:
        return (
            self.failed == 0
            and self.p99_ms <= P99_LIMIT_MS
            and self.completed_in_time >= COMPLETE_SHARE
        )


def evaluate(records: Sequence[Record], rate: float, start: float, duration: float) -> StepResult:
    """Apply the step rule; failed requests count as infinitely late."""
    if not records:
        return StepResult(rate, 0, 0, 0.0, 1.0, 0.0)
    cutoff = start + duration + COMPLETE_GRACE_S
    in_time = sum(1 for record in records if record.raw and record.recv <= cutoff)
    latencies = [math.inf if failed(record) else record.latency_ms for record in records]
    return StepResult(
        rate=rate,
        offered=len(records),
        failed=sum(1 for record in records if failed(record)),
        p99_ms=stats.percentile(latencies, 99) if math.inf not in latencies else math.inf,
        completed_in_time=in_time / len(records),
        late_ms=lateness_ms(records),
    )


# -- correctness: untimed replay --------------------------------------------


def replay_mismatches(system: Dict[str, Any], records: Sequence[Record]) -> List[str]:
    """Admit/withdraw replies that differ from an in-process replay.

    Requests are replayed in ``seq`` order (per VM that is the order the
    server saw them) through one :class:`repro.serve.AdmissionShard`
    holding every VM.  Requests the server shed, or whose reply never
    came, were not (knowably) applied and are skipped.
    """
    from repro.serve import AdmissionShard, ShardConfig

    shard = AdmissionShard(
        config=ShardConfig(
            table_pattern=list(system["table_pattern"]),
            servers=[tuple(entry) for entry in system["servers"]],
        )
    )
    problems: List[str] = []
    for record in sorted(records, key=lambda item: item.seq):
        op = record.message["op"]
        response = record.response
        if op == "analyze" or response is None:
            continue
        if not response.get("ok") and response["error"].get("kind") in ("shedding", "quarantined"):
            continue
        if op == "admit":
            reply = shard.handle({"op": "admit", "task": record.message["task"]})
            same = response.get("ok") and reply.get("ok")
            if not same or response["decision"] != reply["decision"]:
                problems.append(f"seq {record.seq}: admit reply differs from replay")
        else:
            reply = shard.handle(
                {
                    "op": "withdraw",
                    "vm_id": record.message["vm_id"],
                    "task_name": record.message["task_name"],
                }
            )
            if bool(response.get("ok")) != bool(reply.get("ok")):
                problems.append(f"seq {record.seq}: withdraw outcome differs from replay")
            elif not reply.get("ok") and response["error"]["kind"] != reply["error"]["kind"]:
                problems.append(f"seq {record.seq}: withdraw error differs from replay")
    return problems


# -- a server's lifetime -----------------------------------------------------


@dataclass
class Session:
    """One fresh server plus the churn state its population follows."""

    workload: str
    seed: int
    work_dir: str
    system: Dict[str, Any]
    trace_file: Optional[str] = None
    records: List[Record] = field(default_factory=list)

    def __post_init__(self) -> None:
        system_file = os.path.join(self.work_dir, "serve-system.json")
        with open(system_file, "w", encoding="utf-8") as handle:
            json.dump(self.system, handle)
        self.server = ServerProcess(
            os.path.dirname(HERE),
            system_file,
            os.path.join(self.work_dir, "serve-server.log"),
            trace_file=self.trace_file,
        )
        self.churn = inputs.Churn(mixed=self.workload == "serve-mixed")

    def run(self, phase: str, rate: float, duration: float) -> Tuple[List[Record], float]:
        schedule = inputs.poisson_schedule(
            self.seed, phase, rate, duration, self.churn, CONNECTIONS
        )
        records, start = asyncio.run(drive("127.0.0.1", self.server.port, schedule))
        self.records.extend(records)
        return records, start

    def close(self) -> Dict[str, Any]:
        """Stop the server; returns its counters and replay problems."""
        try:
            counters = self.server.control({"op": "stats", "seq": 0})["stats"]["counters"]
        except (OSError, ValueError, KeyError):
            counters = {}
        self.server.stop()
        problems = replay_mismatches(self.system, self.records)
        return {"counters": counters, "replay": problems}


def run(
    workload: str,
    *,
    seed: int,
    seconds: float,
    work_dir: str,
    trace_file: Optional[str] = None,
) -> Dict[str, Any]:
    if trace_file is not None:
        return _run_traced(workload, seed, seconds, work_dir, trace_file)
    return _run_measured(workload, seed, seconds, work_dir)


def _setup_probe(work_dir: str) -> float:
    """Launch a server, wait for its first ``ping`` reply, stop it."""
    session = Session("serve-admit", 0, work_dir, inputs.serve_system())
    session.server.stop()
    return session.server.setup_s


def _run_measured(workload: str, seed: int, seconds: float, work_dir: str) -> Dict[str, Any]:
    """Set-up probes, then nominal latency and load steps on a fresh server."""
    plan = Plan.for_budget(seconds)
    nominal = NOMINAL_RATE[workload]
    started = time.perf_counter()
    setups = [_setup_probe(work_dir) for _ in range(SETUP_PROBES - 1)]

    session = Session(workload, seed, work_dir, inputs.serve_system())
    setups.append(session.server.setup_s)
    records, start = session.run("nominal", nominal, plan.warm + plan.window)
    window = [record for record in records if record.due - start >= plan.warm]
    nominal_step = evaluate(window, nominal, start + plan.warm, plan.window)
    rss = session.server.peak_rss_mb()
    # Past the knee refusals are what a failing step is expected to
    # show; they are reported with the step, not counted as failures.
    steps: List[StepResult] = []
    for factor in STEP_FACTORS:
        step_records, step_start = session.run(f"step{factor}", factor * nominal, plan.step)
        steps.append(evaluate(step_records, factor * nominal, step_start, plan.step))
        if not steps[-1].passed:
            break
    closed = session.close()

    def median_ms(chosen: List[Record]) -> float:
        return stats.median([math.inf if failed(r) else r.latency_ms for r in chosen])

    reads = [record for record in window if record.message["op"] == "analyze"]
    writes = [record for record in window if record.message["op"] != "analyze"]
    passed = [step.rate for step in [nominal_step] + steps if step.passed]
    return {
        "ops": len(records) + sum(step.offered for step in steps),
        "ops_failed": sum(1 for record in records if failed(record)) + len(closed["replay"]),
        "errors": closed["replay"][:10],
        "wall_s": time.perf_counter() - started,
        "peak_rss_mb": rss,
        "setup_s": stats.median(setups),
        "metrics": {
            # serve-mixed gates its read path: the all-request median
            # sits between the requests an analyze holds up and the
            # rest, and moves by a fifth between runs.
            "p50_ms": median_ms(reads if workload == "serve-mixed" else window),
        },
        "diag": {
            "p50_all_ms": median_ms(window),
            "p50_write_ms": median_ms(writes),
            "p50_read_ms": median_ms(reads) if reads else 0.0,
            "tail_ms": nominal_step.p99_ms,
            "max_rate_rps": max(passed) if passed else 0.0,
            "nominal_rate": nominal,
            "nominal_late_ms": nominal_step.late_ms,
            "nominal_passed": nominal_step.passed,
            "steps": [
                {
                    "rate": step.rate,
                    "passed": step.passed,
                    "p99_ms": step.p99_ms,
                    "failed": step.failed,
                    "completed_in_time": step.completed_in_time,
                    "late_ms": step.late_ms,
                }
                for step in steps
            ],
            "setup_samples_s": setups,
            "counters": closed["counters"],
        },
    }


def _run_traced(
    workload: str, seed: int, seconds: float, work_dir: str, trace_file: str
) -> Dict[str, Any]:
    """Nominal phase untraced, then traced, then traced at 2x nominal.

    The overhead is the server tree's CPU over the nominal window,
    traced over untraced, for the same requests.
    """
    plan = Plan.for_budget(seconds)
    nominal = NOMINAL_RATE[workload]
    started = time.perf_counter()

    def nominal_phase(session: Session) -> Tuple[List[Record], float]:
        warm, _ = session.run("warm", nominal, plan.warm)
        cpu = session.server.cpu_seconds()
        records, _start = session.run("nominal", nominal, plan.window)
        return warm + records, session.server.cpu_seconds() - cpu

    plain = Session(workload, seed, work_dir, inputs.serve_system())
    plain_records, plain_cpu = nominal_phase(plain)
    replay = plain.close()["replay"]

    traced = Session(workload, seed, work_dir, inputs.serve_system(), trace_file=trace_file)
    traced_records, traced_cpu = nominal_phase(traced)
    double, _ = traced.run("double", 2 * nominal, plan.step)
    closed = traced.close()
    replay += closed["replay"]
    with open(trace_file, encoding="utf-8") as handle:
        snapshot = json.load(handle)

    driven_s = plan.warm + plan.window + plan.step
    values = layers.layer_metrics(snapshot, driven_s)
    dispatch = {
        span[4]: span[6] - span[5]
        for span in snapshot["spans"]
        if span[2] == "serve.request" and span[4]
    }
    epoch = snapshot["layers"].get("serve.epoch", {"calls": 0, "units": 0, "self_s": 0.0})
    build = snapshot["layers"].get("serve.epoch.build", {"self_s": 0.0})
    counters = closed["counters"]
    values.update(
        {
            "trace.overhead": traced_cpu / plain_cpu if plain_cpu > 0 else 0.0,
            "trace.spans": len(snapshot["spans"]),
            "serve.wait_pct": wait_pct(traced_records, dispatch),
            "serve.wait_pct_2x": wait_pct(double, dispatch),
            "serve.epoch.batches": epoch["calls"],
            "serve.epoch.mean_batch": epoch["units"] / epoch["calls"] if epoch["calls"] else 0.0,
            "serve.epoch.self_pct": 100.0 * (epoch["self_s"] + build["self_s"]) / driven_s,
            "serve.shed": counters.get("shed", 0),
            "serve.quarantined_rejects": counters.get("quarantined_rejects", 0),
            "serve.admitted": counters.get("admitted", 0),
            "serve.rejected": counters.get("rejected", 0),
            "serve.analyze_batches": counters.get("analyze_batches", 0),
            "serve.gen_late_pct": 100.0
            * sum(1 for record in traced_records if record.sent - record.due > LATE_S)
            / max(1, len(traced_records)),
        }
    )
    checked = plain_records + traced_records
    return {
        "ops": len(checked) + len(double),
        "ops_failed": sum(1 for record in checked if failed(record)) + len(replay),
        "errors": replay[:10],
        "wall_s": time.perf_counter() - started,
        "layer_values": values,
        "trace": {key: snapshot[key] for key in ("status", "layers", "counters", "absent")},
        "diag": {"cpu_untraced_s": plain_cpu, "cpu_traced_s": traced_cpu},
    }


def wait_pct(records: Sequence[Record], dispatch: Dict[int, float]) -> float:
    """Share of client latency spent outside the server's dispatch (%)."""
    latency = busy = 0.0
    for record in records:
        if record.raw and record.seq in dispatch:
            latency += record.recv - record.due
            busy += dispatch[record.seq]
    return 100.0 * (latency - busy) / latency if latency > 0 else 0.0

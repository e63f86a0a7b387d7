import asyncio
import json
import time

import inputs
import serve_load
from repro.serve import AdmissionShard, ShardConfig

STALL_S = 0.2


async def _stalling_server(stall_at: int):
    """Echo server that blocks its event loop once, at request ``stall_at``.

    It shares the loop with the load generator, so the stall also holds
    up the sender: requests due during it go out late, as they would
    behind a stalled host.
    """
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        while True:
            line = await reader.readline()
            if not line:
                break
            seen += 1
            if seen == stall_at:
                time.sleep(STALL_S)
            seq = json.loads(line)["seq"]
            writer.write(json.dumps({"ok": True, "seq": seq, "v": 1}).encode() + b"\n")
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_open_loop_latency_includes_a_server_stall_and_reports_lateness():
    period = 0.01
    requests = [
        inputs.Request(index * period, index % 2, index % 4, {"op": "ping", "seq": index + 1})
        for index in range(80)
    ]

    async def scenario():
        server = await _stalling_server(stall_at=20)
        port = server.sockets[0].getsockname()[1]
        try:
            return await serve_load.drive("127.0.0.1", port, requests, drain_timeout=5.0)
        finally:
            server.close()
            await server.wait_closed()

    records, start = asyncio.run(scenario())
    assert all(record.raw for record in records)
    stalled_at = min(record.recv for record in records if record.seq == 20) - start
    behind = [r for r in records if stalled_at - 0.15 < r.due - start < stalled_at - 0.05]
    assert behind, "some requests must fall due during the stall"
    # Timed from when they were due, the queued requests carry the stall.
    assert min(record.latency_ms for record in behind) >= 40.0
    assert max(record.latency_ms for record in records) >= 0.7 * STALL_S * 1e3
    # The sender was held up too, and says so.
    assert serve_load.lateness_ms(records) >= 0.7 * STALL_S * 1e3
    result = serve_load.evaluate(records, 1 / period, start, len(requests) * period)
    assert result.failed == 0 and result.late_ms >= 0.7 * STALL_S * 1e3


def _served_records():
    """Admit/withdraw traffic answered by a real shard, as a server would."""
    system = inputs.serve_system()
    shard = AdmissionShard(
        config=ShardConfig(
            table_pattern=system["table_pattern"],
            servers=[tuple(entry) for entry in system["servers"]],
        )
    )
    records = []
    for request in inputs.poisson_schedule(3, "t", 400.0, 0.5, inputs.Churn(mixed=False), 2):
        message = dict(request.message)
        op = message.pop("op")
        seq = message.pop("seq")
        reply = shard.handle(dict(message, op=op))
        response = {"v": 1, "seq": seq, "ok": reply["ok"]}
        response.update({key: value for key, value in reply.items() if key != "ok"})
        record = serve_load.Record(seq, request.vm, request.message, request.offset)
        record.raw = json.dumps(response).encode()
        records.append(record)
    return system, records


def test_replay_accepts_faithful_replies():
    system, records = _served_records()
    assert any(r.message["op"] == "withdraw" for r in records)
    assert serve_load.replay_mismatches(system, records) == []


def test_replay_flags_a_tampered_decision():
    system, records = _served_records()
    victim = next(r for r in records if r.message["op"] == "admit")
    response = json.loads(victim.raw)
    response["decision"]["schedulable"] = not response["decision"]["schedulable"]
    tampered = serve_load.Record(victim.seq, victim.vm, victim.message, victim.due)
    tampered.raw = json.dumps(response).encode()
    records[records.index(victim)] = tampered
    problems = serve_load.replay_mismatches(system, records)
    assert problems and problems[0].startswith(f"seq {victim.seq}:")

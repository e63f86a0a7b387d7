"""Admission-server tests: dispatch, batching, shedding, rebalance.

Each test runs a real server on an ephemeral loopback port inside
``asyncio.run`` and talks to it over asyncio streams on the same loop.
Because the clients share the server's loop, a test can write to several
connections with no ``await`` in between and so make their requests
arrive in one loop turn: that is how the concurrency tests (shedding,
fairness, rebalance with parked requests) stay deterministic.
"""

import asyncio
import json
import logging
import threading

import pytest

from repro.core.admission import ConfigurationError
from repro.serve.protocol import decode_message, encode_message
from repro.serve.server import AdmissionServer, ServeConfig
from repro.serve.shard import AdmissionShard, ShardConfig, ShardPool
from repro.tasks.serialization import canonical_json

PATTERN = [1 if slot % 5 == 0 else 0 for slot in range(20)]
SERVERS = [(0, 10, 2), (1, 10, 2), (2, 20, 3), (3, 20, 3)]


def make_config(**overrides):
    defaults = dict(
        table_pattern=PATTERN,
        servers=SERVERS,
        shards=2,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def run_with_server(test_body, **config_overrides):
    """Start a server, hand (server, request) to the coroutine, stop."""

    async def _main():
        server = AdmissionServer(make_config(**config_overrides))
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )

        async def request(message):
            writer.write(encode_message(message))
            await writer.drain()
            return decode_message(await reader.readline())

        try:
            return await test_body(server, request)
        finally:
            writer.close()
            await writer.wait_closed()
            await server.stop()

    return asyncio.run(_main())


async def open_connections(server, count):
    """``count`` connections, each answered once so its handler is live."""
    connections = []
    for _ in range(count):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(encode_message({"op": "ping", "seq": 0}))
        await writer.drain()
        assert decode_message(await reader.readline())["ok"]
        connections.append((reader, writer))
    return connections


async def close_connections(connections):
    for _reader, writer in connections:
        writer.close()
        await writer.wait_closed()


def admit(seq, vm_id, name, period=100, wcet=2):
    return {
        "op": "admit",
        "seq": seq,
        "task": {"name": name, "vm_id": vm_id, "period": period, "wcet": wcet},
    }


class TestDispatch:
    def test_ping_reports_epoch(self):
        async def body(server, request):
            response = await request({"op": "ping", "seq": 4})
            assert response["ok"] and response["seq"] == 4
            assert isinstance(response["epoch"], int)

        run_with_server(body)

    def test_admit_withdraw_round_trip(self):
        async def body(server, request):
            response = await request(admit(1, 0, "a"))
            assert response["ok"] and response["decision"]["schedulable"]
            response = await request(
                {"op": "withdraw", "seq": 2, "vm_id": 0, "task_name": "a"}
            )
            assert response["ok"] and response["task"]["name"] == "a"
            response = await request(
                {"op": "withdraw", "seq": 3, "vm_id": 0, "task_name": "a"}
            )
            assert not response["ok"]
            assert response["error"]["kind"] == "unknown_task"

        run_with_server(body)

    def test_unknown_vm_is_typed(self):
        async def body(server, request):
            response = await request(admit(1, 99, "a"))
            assert not response["ok"]
            assert response["error"]["kind"] == "unknown_vm"

        run_with_server(body)

    def test_malformed_line_is_a_protocol_error(self):
        async def body(server, request):
            response = await request({"op": "explode", "seq": 1})
            assert not response["ok"]
            assert response["error"]["kind"] == "protocol"
            assert server.counters["protocol_errors"] == 1

        run_with_server(body)

    def test_stats_and_snapshot_ops(self):
        async def body(server, request):
            await request(admit(1, 0, "a"))
            stats = (await request({"op": "stats", "seq": 2}))["stats"]
            assert stats["shards"] == 2
            assert stats["counters"]["admits"] == 1
            assert stats["pool"]["admitted_count"] == 1
            snapshot = (await request({"op": "snapshot", "seq": 3}))[
                "snapshot"
            ]
            assert snapshot["schema_version"] == 1
            assert [entry[0] for entry in snapshot["servers"]] == [0, 1, 2, 3]

        run_with_server(body)

    def test_shutdown_op_stops_serve_loop(self):
        async def _main():
            server = AdmissionServer(make_config())
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(encode_message({"op": "shutdown", "seq": 1}))
            await writer.drain()
            response = decode_message(await reader.readline())
            assert response["ok"] and response["shutting_down"]
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
            writer.close()

        asyncio.run(_main())


MALFORMED_FIELDS = [
    admit(5, "x", "a"),
    admit(5, True, "a"),
    admit(5, 1.5, "a"),
    {"op": "admit", "seq": 5, "task": "a"},
    {"op": "withdraw", "seq": 5, "vm_id": "x", "task_name": "t"},
    {"op": "withdraw", "seq": 5, "vm_id": False, "task_name": "t"},
    {"op": "rebalance", "seq": 5, "shards": "x"},
    {"op": "rebalance", "seq": 5, "shards": True},
    {"op": "rebalance", "seq": 5, "shards": 2.0},
]


class TestMalformedFields:
    @pytest.mark.parametrize(
        "message", MALFORMED_FIELDS, ids=lambda message: canonical_json(message)
    )
    def test_typed_error_keeps_connection_and_state(self, message):
        async def body(server, request):
            await request(admit(1, 0, "t"))
            before = (await request({"op": "snapshot", "seq": 2}))["snapshot"]
            response = await request(message)
            assert not response["ok"]
            assert response["error"]["kind"] == "protocol"
            assert server.counters["protocol_errors"] == 1
            # The same connection still answers, and nothing changed.
            assert (await request({"op": "ping", "seq": 6}))["ok"]
            after = (await request({"op": "snapshot", "seq": 7}))["snapshot"]
            assert canonical_json(after) == canonical_json(before)
            assert server.pool.num_shards == 2

        run_with_server(body)


class TestTaskFieldRepros:
    """Task fields the analysis cannot take are refused at parse time."""

    def test_oversize_period_admit_does_not_wedge_its_vm(self):
        async def body(server, request):
            huge = await request(admit(1, 0, "huge", period=2**70))
            assert huge["error"]["kind"] == "protocol"
            assert "'period'" in huge["error"]["message"]
            # Before the fix the first admit was accepted and this one
            # overflowed in the incremental window and dropped the line.
            for seq in (2, 3):
                response = await asyncio.wait_for(
                    request(admit(seq, 0, f"t{seq}")), timeout=10
                )
                assert response["ok"] and response["decision"]["schedulable"]
            population = server.pool.population()
            assert [t["name"] for t in population[0]] == ["t2", "t3"]

        run_with_server(body)

    def test_fractional_period_is_not_truncated(self):
        async def body(server, request):
            response = await request(admit(1, 0, "a", period=50.5))
            assert response["error"]["kind"] == "protocol"
            assert server.pool.population()[0] == []

        run_with_server(body)

    def test_oversize_period_analyze_is_a_protocol_error(self):
        async def body(server, request):
            probe = dict(ANALYZE_PROBE, period=2**70)
            response = await request(
                {"op": "analyze", "seq": 1, "tasks": [probe]}
            )
            assert response["error"]["kind"] == "protocol"

        run_with_server(body)


class TestInternalErrors:
    def test_unexpected_exception_is_answered_and_the_line_kept(self):
        async def body(server, request):
            async def broken(seq):
                raise RuntimeError("boom")

            server._snapshot = broken
            response = await request({"op": "snapshot", "seq": 3})
            assert response["seq"] == 3 and not response["ok"]
            assert response["error"]["kind"] == "internal"
            assert "boom" in response["error"]["message"]
            assert server.counters["internal_errors"] == 1
            # The same connection keeps serving.
            assert (await request(admit(4, 0, "a")))["ok"]

        run_with_server(body)


class TestDecisionLog:
    def test_log_is_canonical_and_seq_sorted(self):
        async def body(server, request):
            await request(admit(20, 1, "b"))
            await request(admit(10, 0, "a"))
            await request(
                {"op": "withdraw", "seq": 15, "vm_id": 1, "task_name": "b"}
            )
            lines = (await request({"op": "log", "seq": 99}))["log"]
            seqs = [json.loads(line)["seq"] for line in lines]
            assert seqs == [10, 15, 20]
            for line in lines:
                payload = json.loads(line)
                assert line == json.dumps(
                    payload, sort_keys=True, separators=(",", ":")
                )

        run_with_server(body)

    def test_log_ring_is_bounded_with_counters(self):
        async def body(server, request):
            for index in range(6):
                await request(admit(index, 0, f"t{index}", period=200, wcet=1))
            assert len(server.log) == 3
            assert server.dropped_log_entries == 3

        run_with_server(body, log_limit=3)


ANALYZE_PROBE = {"name": "w", "vm_id": 0, "period": 50, "wcet": 1}


class TestEpochBatching:
    def test_concurrent_analyzes_share_a_batch(self):
        async def body(server, request):
            connections = await open_connections(server, 3)
            for seq, (_reader, writer) in enumerate(connections):
                writer.write(
                    encode_message({"op": "analyze", "seq": seq, "tasks": []})
                )
            lines = await asyncio.gather(
                *[reader.readline() for reader, _writer in connections]
            )
            await close_connections(connections)
            return [decode_message(line) for line in lines]

        responses = run_with_server(body)
        assert all(r["ok"] for r in responses)
        assert all(r["report"]["schedulable"] for r in responses)
        # All three were parked before the loop turned -> one batch.
        assert [r["epoch"] for r in responses] == [1, 1, 1]

    @pytest.mark.parametrize(
        "bad_tasks",
        [[{"vm_id": 0}], "w", [ANALYZE_PROBE, ANALYZE_PROBE]],
        ids=["unparsable", "not-a-list", "duplicate-name"],
    )
    def test_malformed_analyze_fails_alone(self, bad_tasks):
        async def _main():
            server = AdmissionServer(make_config())
            await server.start()
            try:
                connections = await open_connections(server, 2)
                messages = [
                    {"op": "analyze", "seq": 1, "tasks": [ANALYZE_PROBE]},
                    {"op": "analyze", "seq": 2, "tasks": bad_tasks},
                ]
                for (_reader, writer), message in zip(connections, messages):
                    writer.write(encode_message(message))
                responses = await asyncio.gather(
                    *[reader.readline() for reader, _writer in connections]
                )
                await close_connections(connections)
            finally:
                await server.stop()
            ok, bad = [decode_message(line) for line in responses]
            assert ok["ok"] and ok["report"]["schedulable"]
            assert ok["report"]["local_results"]["0"]["task_names"] == ["w"]
            assert not bad["ok"] and bad["error"]["kind"] == "protocol"
            assert server.counters["analyze_batches"] == 1
            assert server.counters["protocol_errors"] == 1

        asyncio.run(_main())

    def test_analyze_in_unknown_vm_is_typed_and_fails_alone(self):
        async def _main():
            server = AdmissionServer(make_config())
            await server.start()
            try:
                connections = await open_connections(server, 2)
                stray = dict(ANALYZE_PROBE, name="stray", vm_id=99, wcet=49)
                messages = [
                    {"op": "analyze", "seq": 1, "tasks": [ANALYZE_PROBE]},
                    {"op": "analyze", "seq": 2, "tasks": [stray]},
                ]
                for (_reader, writer), message in zip(connections, messages):
                    writer.write(encode_message(message))
                responses = await asyncio.gather(
                    *[reader.readline() for reader, _writer in connections]
                )
                await close_connections(connections)
            finally:
                await server.stop()
            ok, stray_response = [decode_message(line) for line in responses]
            assert ok["ok"] and ok["report"]["schedulable"]
            assert ok["report"]["local_results"]["0"]["task_names"] == ["w"]
            assert not stray_response["ok"]
            assert stray_response["error"]["kind"] == "unknown_vm"
            assert server.counters["analyze_batches"] == 1

        asyncio.run(_main())

    def test_analyze_sees_admitted_population(self):
        async def body(server, request):
            await request(admit(1, 0, "a", period=50, wcet=2))
            report = (
                await request({"op": "analyze", "seq": 2, "tasks": []})
            )["report"]
            assert report["schedulable"]
            local = report["local_results"]["0"]
            assert local["task_names"] == ["a"]
            # A what-if probe is analyzed without being admitted.
            probe = {"name": "w", "vm_id": 0, "period": 50, "wcet": 1}
            report = (
                await request({"op": "analyze", "seq": 3, "tasks": [probe]})
            )["report"]
            assert sorted(report["local_results"]["0"]["task_names"]) == [
                "a",
                "w",
            ]
            population = server.pool.population()
            assert [t["name"] for t in population[0]] == ["a"]

        run_with_server(body)

    def test_same_task_name_in_two_vms(self):
        """Admission allows one name per VM, so ``s`` in VM 0 and in VM 1
        is a valid population; analyze must not reject it as a duplicate,
        and each VM's result names its own ``s``."""

        async def body(server, request):
            assert (await request(admit(1, 0, "s", period=50, wcet=2)))["ok"]
            assert (await request(admit(2, 1, "s", period=40, wcet=1)))["ok"]
            probe = {"name": "s", "vm_id": 2, "period": 100, "wcet": 1}
            response = await request(
                {"op": "analyze", "seq": 3, "tasks": [probe]}
            )
            assert response["ok"], response
            local = response["report"]["local_results"]
            assert [local[vm]["task_names"] for vm in ("0", "1", "2", "3")] == [
                ["s"], ["s"], ["s"], []
            ]
            # A repeat within one VM is still the request's own error.
            again = {"name": "s", "vm_id": 1, "period": 100, "wcet": 1}
            response = await request(
                {"op": "analyze", "seq": 4, "tasks": [again]}
            )
            assert not response["ok"]
            assert response["error"]["kind"] == "protocol"
            assert "duplicate task name 's'" in response["error"]["message"]

        run_with_server(body)


class TestBatchRule:
    """A batch is flushed on the loop turn after its first request parks."""

    def test_one_flush_is_scheduled_per_batch(self):
        scheduled = []

        async def body(server, request):
            loop = asyncio.get_running_loop()
            call_soon = loop.call_soon

            def recording(callback, *args, **kwargs):
                if callback == server._flush_epoch:
                    scheduled.append(server.counters["analyzes"])
                return call_soon(callback, *args, **kwargs)

            loop.call_soon = recording
            try:
                connections = await open_connections(server, 3)
                for seq, (_reader, writer) in enumerate(connections):
                    writer.write(
                        encode_message(
                            {"op": "analyze", "seq": seq, "tasks": []}
                        )
                    )
                await asyncio.gather(
                    *[reader.readline() for reader, _writer in connections]
                )
                await close_connections(connections)
                assert (await request({"op": "analyze", "seq": 9}))["ok"]
            finally:
                loop.call_soon = call_soon

        run_with_server(body)
        # Scheduled by the first request of each batch, not by the others.
        assert scheduled == [1, 4]

    def test_epoch_counts_non_empty_batches(self):
        async def body(server, request):
            assert (await request({"op": "ping", "seq": 1}))["epoch"] == 0
            server._flush_epoch()  # nothing pending: no batch, no epoch
            assert (await request({"op": "ping", "seq": 2}))["epoch"] == 0
            epochs = [
                (await request({"op": "analyze", "seq": seq}))["epoch"]
                for seq in (3, 4, 5)
            ]
            assert epochs == [1, 2, 3]
            server._flush_epoch()
            stats = (await request({"op": "stats", "seq": 6}))["stats"]
            assert stats["epoch"] == 3
            assert stats["counters"]["analyze_batches"] == 3
            assert (await request({"op": "ping", "seq": 7}))["epoch"] == 3

        run_with_server(body)

    def test_write_answered_while_an_analyze_is_parked(self):
        async def body(server, request):
            held = []
            # Hold the batch: the flush the analyze schedules only records.
            server._flush_epoch = lambda: held.append(server.epoch)
            [(reader, writer)] = await open_connections(server, 1)
            writer.write(
                encode_message({"op": "analyze", "seq": 1, "tasks": []})
            )
            await writer.drain()
            response = await asyncio.wait_for(
                request(admit(2, 1, "w")), timeout=10
            )
            assert response["ok"] and response["decision"]["schedulable"]
            assert held == [0] and len(server._pending) == 1
            del server._flush_epoch
            server._flush_epoch()
            reply = decode_message(await reader.readline())
            assert reply["ok"] and reply["epoch"] == 1
            await close_connections([(reader, writer)])

        run_with_server(body)


class TestOverload:
    def test_shedding_then_quarantine(self):
        async def body(server, request):
            # queue_limit=0: every admit is shed; reject_limit=2 trips
            # the DegradationPolicy quarantine on the second streak hit.
            first = await request(admit(1, 0, "a"))
            assert first["error"]["kind"] == "shedding"
            assert first["error"]["quarantined"] is False
            second = await request(admit(2, 0, "b"))
            assert second["error"]["kind"] == "shedding"
            assert second["error"]["quarantined"] is True
            third = await request(admit(3, 0, "c"))
            assert third["error"]["kind"] == "quarantined"
            stats = (await request({"op": "stats", "seq": 4}))["stats"]
            assert stats["counters"]["shed"] == 2
            assert stats["counters"]["quarantined_rejects"] == 1
            assert stats["quarantined_vms"] == [0]
            assert stats["quarantine_log"] == [
                {
                    "category": "vm",
                    # The shed request that tripped it, not a clock reading.
                    "seq": 2,
                    "target": "0",
                    "reason": "2 consecutive rejections",
                }
            ]
            # Other VMs are unaffected: isolation holds under overload.
            ok = await request(admit(5, 1, "d"))
            assert ok["error"]["kind"] == "shedding"  # still shed, not quarantined

        run_with_server(body, queue_limit=0, reject_limit=2)

    def test_accept_resets_the_streak(self):
        async def body(server, request):
            shed = await request(admit(1, 0, "a"))
            assert shed["error"]["kind"] == "shedding"
            server.config.queue_limit = 64  # relieve the pressure
            accepted = await request(admit(2, 0, "b"))
            assert accepted["ok"]
            server.config.queue_limit = 0
            shed = await request(admit(3, 0, "c"))
            assert shed["error"]["kind"] == "shedding"
            assert shed["error"]["quarantined"] is False

        run_with_server(body, queue_limit=0, reject_limit=2)


class TestConcurrency:
    def test_shedding_under_concurrent_admits(self):
        """Admits parked at their yield count against ``queue_limit``."""

        async def body(server, request):
            connections = await open_connections(server, 6)
            for index, (_reader, writer) in enumerate(connections):
                writer.write(encode_message(admit(index + 1, 0, f"c{index}")))
            replies = await asyncio.gather(
                *[reader.readline() for reader, _writer in connections]
            )
            await close_connections(connections)
            kinds = [
                "ok" if reply["ok"] else reply["error"]["kind"]
                for reply in map(decode_message, replies)
            ]
            assert sorted(kinds) == ["ok"] * 2 + ["shedding"] * 4
            assert server.counters["shed"] == 4

        run_with_server(body, queue_limit=2)

    def test_ping_answered_while_a_burst_drains(self):
        """One connection's buffered burst does not starve another."""
        burst = 3000

        async def body(server, request):
            connections = await open_connections(server, 1)
            [(burst_reader, burst_writer)] = connections
            lines = []
            for index in range(burst // 2):
                lines.append(encode_message(admit(2 * index + 1, 0, "a")))
                lines.append(
                    encode_message(
                        {
                            "op": "withdraw",
                            "seq": 2 * index + 2,
                            "vm_id": 0,
                            "task_name": "a",
                        }
                    )
                )
            burst_writer.write(b"".join(lines))
            response = await request({"op": "ping", "seq": 0})
            served = server.counters["admits"] + server.counters["withdraws"]
            assert response["ok"]
            assert served < burst // 10
            for _ in range(burst):
                assert decode_message(await burst_reader.readline())["ok"]
            await close_connections(connections)

        run_with_server(body)

    def test_writes_use_no_thread(self):
        async def body(server, request):
            threads = threading.active_count()
            loop = asyncio.get_running_loop()
            run_in_executor = loop.run_in_executor
            calls = []

            def recording(*args):
                calls.append(args)
                return run_in_executor(*args)

            loop.run_in_executor = recording
            messages = [
                admit(1, 0, "a"),
                {"op": "withdraw", "seq": 2, "vm_id": 0, "task_name": "a"},
                {"op": "snapshot", "seq": 3},
                {"op": "stats", "seq": 4},
                {"op": "rebalance", "seq": 5, "shards": 3},
                admit(6, 1, "b"),
                {"op": "analyze", "seq": 7, "tasks": [ANALYZE_PROBE]},
            ]
            for message in messages:
                assert (await request(message))["ok"]
            assert calls == []
            assert threading.active_count() == threads

        run_with_server(body)


class TestRebalance:
    def test_rebalance_preserves_state_and_decisions(self):
        async def body(server, request):
            for index in range(4):
                await request(admit(index, index, f"t{index}"))
            response = await request({"op": "rebalance", "seq": 10, "shards": 4})
            assert response["ok"] and response["shards"] == 4
            assert server.pool.num_shards == 4
            population = server.pool.population()
            assert [t["name"] for t in population[2]] == ["t2"]
            # Decisions continue as if nothing happened.
            response = await request(admit(11, 2, "probe", period=50, wcet=1))
            assert response["ok"]

        run_with_server(body)

    def test_parked_requests_follow_a_rebalance(self, monkeypatch):
        """Requests parked at their yield re-route to the new pool.

        Each round pipelines three admits per VM on that VM's connection
        and a ``rebalance`` on a fifth, all in one loop turn, so the
        rebalance runs while admits are parked.  Every decision must
        equal a replay of the same admits through one fresh shard.
        """
        parked = []
        snapshot = ShardPool.snapshot

        def counting_snapshot(pool):
            parked.append(sum(shard.inflight for shard in pool.shards))
            return snapshot(pool)

        monkeypatch.setattr(ShardPool, "snapshot", counting_snapshot)
        sent = []

        async def body(server, request):
            connections = await open_connections(server, 5)
            *vm_connections, (control_reader, control_writer) = connections
            for round_index in range(4):
                for vm_id, (_reader, writer) in enumerate(vm_connections):
                    for index in range(3):
                        sent.append(
                            admit(
                                len(sent) + 1,
                                vm_id,
                                f"vm{vm_id}.r{round_index}.t{index}",
                                period=50 if index % 2 else 100,
                                wcet=1 + (round_index + index) % 3,
                            )
                        )
                        writer.write(encode_message(sent[-1]))
                control_writer.write(
                    encode_message(
                        {"op": "rebalance", "seq": 0, "shards": round_index + 1}
                    )
                )
                for reader, _writer in vm_connections:
                    for _ in range(3):
                        assert decode_message(await reader.readline())["ok"]
                assert decode_message(await control_reader.readline())["ok"]
            await close_connections(connections)
            return server.decision_log_lines()

        log = run_with_server(body)
        assert any(count > 0 for count in parked)
        replay = AdmissionShard(
            config=ShardConfig(
                table_pattern=PATTERN, servers=SERVERS, max_decisions=4096
            )
        )
        expected = [
            canonical_json(
                {
                    "decision": replay.handle(
                        {"op": "admit", "task": message["task"]}
                    )["decision"],
                    "op": "admit",
                    "seq": message["seq"],
                }
            )
            for message in sent
        ]
        assert log == expected

    def test_rebalance_rejects_zero_shards(self):
        async def body(server, request):
            response = await request(
                {"op": "rebalance", "seq": 1, "shards": 0}
            )
            assert not response["ok"]
            assert response["error"]["kind"] == "protocol"

        run_with_server(body)

    @pytest.mark.parametrize("shards", [len(SERVERS) + 1, 20_000])
    def test_rebalance_rejects_more_shards_than_vms(self, shards):
        async def body(server, request):
            for index in range(4):
                await request(admit(index, index, f"t{index}"))
            before = server.pool.snapshot().to_json()
            response = await request(
                {"op": "rebalance", "seq": 9, "shards": shards}
            )
            assert not response["ok"]
            assert response["error"]["kind"] == "protocol"
            assert server.pool.num_shards == 2
            # The canonical snapshot bytes, hence their digest, are unchanged.
            assert server.pool.snapshot().to_json() == before
            assert (await request(admit(10, 1, "next")))["ok"]

        run_with_server(body)


class TestHttpFraming:
    def test_post_and_get_round_trip(self):
        async def _main():
            server = AdmissionServer(make_config())
            await server.start()

            async def http(raw):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(raw)
                await writer.drain()
                data = await reader.read()
                writer.close()
                head, _, body = data.partition(b"\r\n\r\n")
                return head.split(b"\r\n")[0].decode(), json.loads(body)

            try:
                body = json.dumps(
                    {
                        "seq": 1,
                        "task": {
                            "name": "a",
                            "vm_id": 0,
                            "period": 100,
                            "wcet": 2,
                        },
                    }
                ).encode()
                status, response = await http(
                    b"POST /v1/admit HTTP/1.1\r\nHost: t\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                assert status == "HTTP/1.1 200 OK"
                assert response["decision"]["schedulable"]
                status, response = await http(
                    b"GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                assert status == "HTTP/1.1 200 OK"
                assert response["stats"]["counters"]["admits"] == 1
                status, response = await http(
                    b"POST /v1/explode HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 2\r\n\r\n{}"
                )
                assert status == "HTTP/1.1 400 Bad Request"
                assert response["error"]["kind"] == "protocol"
            finally:
                await server.stop()

        asyncio.run(_main())


class TestStop:
    def test_idle_client_sees_eof_and_nothing_is_logged(self, caplog):
        """``stop`` closes live connections and waits for their handlers,
        so none is cancelled (and logged) at loop teardown."""

        async def _main():
            server = AdmissionServer(make_config())
            await server.start()
            idle = await asyncio.open_connection("127.0.0.1", server.port)
            served = await open_connections(server, 1)
            await server.stop()
            eof = [
                await asyncio.wait_for(reader.read(), timeout=10)
                for reader, _writer in [idle] + served
            ]
            await close_connections([idle] + served)
            return eof

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            assert asyncio.run(_main()) == [b"", b""]
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []


class TestStartupValidation:
    def test_infeasible_servers_raise_configuration_error(self):
        # Demand 4 + 4 per 10 slots > 8 free slots in every window of 10.
        config = make_config(
            table_pattern=[1, 0, 0, 0, 0, 1, 0, 0, 0, 0],
            servers=[(0, 10, 5), (1, 10, 5)],
        )
        with pytest.raises(ConfigurationError) as excinfo:
            AdmissionServer(config)
        assert excinfo.value.failing_t is not None
        assert excinfo.value.servers == ((0, 10, 5), (1, 10, 5))

    @pytest.mark.parametrize("shards", [0, len(SERVERS) + 1])
    def test_shard_count_outside_the_vm_count_rejected(self, shards):
        with pytest.raises(ValueError, match=r"shards must lie in \[1, 4\]"):
            AdmissionServer(make_config(shards=shards))

    def test_from_system_payload_validates_keys(self):
        with pytest.raises(ValueError, match="servers"):
            ServeConfig.from_system_payload({"table_pattern": [0, 1]})

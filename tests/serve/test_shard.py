"""Shard-layer tests: partitioning, the shard pool, snapshot merge/split.

The load-bearing property is shard-count invariance: because per-VM
Theorem-4 admission reads only that VM's state, the same per-VM
request stream must produce byte-identical decisions on a 1-shard and
an N-shard pool.
"""

import pytest

from repro.core.admission import AdmissionController
from repro.core.gsched import ServerSpec
from repro.core.timeslot import TimeSlotTable
from repro.serve.shard import (
    AdmissionShard,
    ShardConfig,
    ShardPool,
    merge_snapshots,
    partition_snapshot,
    partition_vms,
)
from repro.tasks.serialization import canonical_json

PATTERN = [1 if slot % 5 == 0 else 0 for slot in range(20)]
SERVERS = [(0, 10, 2), (1, 10, 2), (2, 20, 3), (3, 20, 3)]


def make_pool(num_shards, **kwargs):
    return ShardPool(PATTERN, SERVERS, num_shards, **kwargs)


def admit_request(vm_id, name, period=100, wcet=2):
    return {
        "op": "admit",
        "task": {"name": name, "vm_id": vm_id, "period": period, "wcet": wcet},
    }


class TestPartitioning:
    def test_round_robin_by_sorted_id(self):
        assert partition_vms([3, 1, 0, 2], 2) == [[0, 2], [1, 3]]
        assert partition_vms([3, 1, 0, 2], 3) == [[0, 3], [1], [2]]

    def test_single_shard_owns_everything(self):
        assert partition_vms([5, 1], 1) == [[1, 5]]

    def test_more_shards_than_vms(self):
        assert partition_vms([0], 3) == [[0], [], []]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="num_shards"):
            partition_vms([0], 0)


class TestShardConfig:
    def test_payload_round_trip(self):
        config = ShardConfig(
            table_pattern=PATTERN,
            servers=[(0, 10, 2)],
            incremental=False,
            max_decisions=7,
        )
        restored = ShardConfig.from_payload(config.to_payload())
        assert restored == config

    def test_exactly_one_source_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            AdmissionShard()


class TestInlinePool:
    def test_admit_withdraw_population(self):
        pool = make_pool(2)
        shard = pool.shard_for(1)
        reply = shard.call(admit_request(1, "t0"))
        assert reply["ok"] and reply["decision"]["schedulable"]
        assert [t["name"] for t in pool.population()[1]] == ["t0"]
        reply = shard.call({"op": "withdraw", "vm_id": 1, "task_name": "t0"})
        assert reply["ok"] and reply["task"]["name"] == "t0"
        assert pool.population()[1] == []
        pool.stop()

    def test_unknown_vm_and_task_error_kinds(self):
        pool = make_pool(1)
        shard = pool.shard_for(0)
        reply = shard.call({"op": "withdraw", "vm_id": 99, "task_name": "x"})
        assert not reply["ok"] and reply["error"]["kind"] == "unknown_vm"
        reply = shard.call({"op": "withdraw", "vm_id": 0, "task_name": "x"})
        assert not reply["ok"] and reply["error"]["kind"] == "unknown_task"
        pool.stop()

    def test_malformed_task_is_a_protocol_error(self):
        pool = make_pool(1)
        reply = pool.shard_for(0).call({"op": "admit", "task": {"name": "x"}})
        assert not reply["ok"] and reply["error"]["kind"] == "protocol"
        pool.stop()

    def test_stop_is_idempotent(self):
        pool = make_pool(2)
        shard = pool.shard_for(0)
        pool.stop()
        pool.stop()
        assert pool.num_shards == 0
        with pytest.raises(RuntimeError, match="stopped"):
            shard.call(admit_request(0, "late"))

    def test_counters_aggregate_across_shards(self):
        pool = make_pool(2)
        for vm_id in range(4):
            pool.shard_for(vm_id).call(admit_request(vm_id, f"t{vm_id}"))
        counters = pool.counters()
        assert counters["admitted_count"] + counters["rejected_count"] == 4
        pool.stop()


class TestShardCountInvariance:
    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_decisions_match_single_shard(self, num_shards):
        requests = []
        for vm_id in range(4):
            for index in range(5):
                requests.append(
                    admit_request(
                        vm_id,
                        f"vm{vm_id}.t{index}",
                        period=50 if index % 2 else 100,
                        wcet=1 + index % 3,
                    )
                )
        reference = make_pool(1)
        sharded = make_pool(num_shards)
        for request in requests:
            vm_id = request["task"]["vm_id"]
            ref = reference.shard_for(vm_id).call(request)
            got = sharded.shard_for(vm_id).call(request)
            assert canonical_json(got["decision"]) == canonical_json(
                ref["decision"]
            )
        reference.stop()
        sharded.stop()


class TestSnapshotMergeSplit:
    def _loaded_pool(self):
        pool = make_pool(2)
        for vm_id in range(4):
            pool.shard_for(vm_id).call(admit_request(vm_id, f"t{vm_id}"))
        return pool

    def test_merged_snapshot_covers_every_vm(self):
        pool = self._loaded_pool()
        snapshot = pool.snapshot()
        assert [entry[0] for entry in snapshot.servers] == [0, 1, 2, 3]
        assert sorted(snapshot.admitted) == [0, 1, 2, 3]
        assert snapshot.admitted_count == 4
        pool.stop()

    def test_merge_rejects_overlapping_vms(self):
        pool = self._loaded_pool()
        snapshot = pool.snapshot()
        with pytest.raises(ValueError, match="two snapshots"):
            merge_snapshots([snapshot, snapshot])
        pool.stop()

    def test_merge_of_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            merge_snapshots([])

    def test_partition_then_merge_preserves_analytic_state(self):
        pool = self._loaded_pool()
        snapshot = pool.snapshot()
        parts = partition_snapshot(snapshot, 3)
        remerged = merge_snapshots(parts)
        assert remerged.admitted == snapshot.admitted
        assert remerged.memo == snapshot.memo
        # Counters and decisions stay with the service log, not shards.
        assert remerged.admitted_count == 0
        assert remerged.decisions == []
        pool.stop()

    def test_warm_pool_continues_identically(self):
        """A pool rebuilt from a snapshot decides like the original."""
        pool = self._loaded_pool()
        snapshot = pool.snapshot()
        warm = make_pool(3, warm_from=snapshot)
        assert warm.population() == pool.population()
        probe = admit_request(2, "probe", period=50, wcet=1)
        original = pool.shard_for(2).call(probe)
        continued = warm.shard_for(2).call(probe)
        assert canonical_json(continued["decision"]) == canonical_json(
            original["decision"]
        )
        pool.stop()
        warm.stop()

    def test_snapshot_payload_matches_direct_controller(self):
        """A 1-shard pool's snapshot equals a plain controller's."""
        pool = make_pool(1)
        direct = AdmissionController(
            TimeSlotTable.from_pattern(PATTERN),
            [ServerSpec(vm, pi, theta) for vm, pi, theta in SERVERS],
            max_decisions=None,
        )
        for vm_id in range(4):
            request = admit_request(vm_id, f"t{vm_id}")
            pool.shard_for(vm_id).call(request)
            from repro.tasks.serialization import task_from_dict

            direct.try_admit(task_from_dict(request["task"]))
        assert pool.snapshot().to_json() == direct.snapshot().to_json()
        pool.stop()

"""Unit tests for task-set JSON serialization."""

import json

import pytest

from repro.tasks import build_case_study_taskset
from repro.tasks.serialization import (
    load_taskset,
    save_taskset,
    task_from_dict,
    task_to_dict,
    taskset_from_json,
    taskset_to_json,
)
from repro.tasks.task import Criticality, IOTask, TaskKind
from repro.tasks.taskset import TaskSet


class TestRoundTrip:
    def test_single_task(self):
        task = IOTask(
            name="t", period=100, wcet=5, deadline=80, vm_id=3,
            kind=TaskKind.PREDEFINED, criticality=Criticality.SAFETY,
            device="spi1", payload_bytes=24, offset=7, jitter=2,
        )
        restored = task_from_dict(task_to_dict(task))
        for attr in (
            "name", "period", "wcet", "deadline", "vm_id", "kind",
            "criticality", "device", "payload_bytes", "offset", "jitter",
        ):
            assert getattr(restored, attr) == getattr(task, attr), attr

    def test_taskset_roundtrip(self):
        original = build_case_study_taskset(vm_count=4)
        restored = taskset_from_json(taskset_to_json(original))
        assert restored.name == original.name
        assert len(restored) == len(original)
        assert restored.utilization == pytest.approx(original.utilization)
        for task in original:
            twin = restored[task.name]
            assert (twin.period, twin.wcet, twin.deadline) == (
                task.period, task.wcet, task.deadline
            )

    def test_file_roundtrip(self, tmp_path):
        original = build_case_study_taskset(vm_count=2)
        path = save_taskset(original, tmp_path / "tasks.json")
        restored = load_taskset(path)
        assert len(restored) == len(original)

    def test_json_is_valid_and_stable(self):
        text = taskset_to_json(build_case_study_taskset())
        payload = json.loads(text)
        assert "tasks" in payload
        assert all("name" in item for item in payload["tasks"])


class TestSchemaValidation:
    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="required field 'period'"):
            task_from_dict({"name": "x", "wcet": 1})

    def test_defaults_applied(self):
        task = task_from_dict({"name": "x", "period": 10, "wcet": 2})
        assert task.deadline == 10
        assert task.kind == TaskKind.RUNTIME
        assert task.criticality == Criticality.FUNCTION

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            task_from_dict(
                {"name": "x", "period": 10, "wcet": 2, "kind": "warp"}
            )

    def test_unknown_criticality(self):
        with pytest.raises(ValueError, match="unknown criticality"):
            task_from_dict(
                {"name": "x", "period": 10, "wcet": 2, "criticality": "meh"}
            )

    def test_invalid_payload_structure(self):
        with pytest.raises(ValueError, match="tasks"):
            taskset_from_json("[1, 2, 3]")

    def test_task_constraints_still_enforced(self):
        # Serialization must not bypass the IOTask validation.
        with pytest.raises(ValueError):
            task_from_dict(
                {"name": "x", "period": 10, "wcet": 20}
            )

    def test_null_deadline_means_implicit(self):
        task = task_from_dict(
            {"name": "x", "period": 10, "wcet": 2, "deadline": None}
        )
        assert task.deadline == 10

    @pytest.mark.parametrize(
        "field",
        ["period", "wcet", "deadline", "offset", "jitter", "payload_bytes", "vm_id"],
    )
    @pytest.mark.parametrize(
        "value",
        [True, 50.5, 10.0, "10", 2**70, (1 << 60) + 1],
        ids=["bool", "fraction", "integral-float", "str", "2**70", "horizon+1"],
    )
    def test_int_fields_refuse_what_the_analysis_cannot_take(self, field, value):
        data = {"name": "x", "period": 10, "wcet": 2, field: value}
        with pytest.raises(ValueError, match=f"task field '{field}'"):
            task_from_dict(data)

    def test_int_fields_accept_the_horizon_itself(self):
        task = task_from_dict(
            {"name": "x", "period": 1 << 60, "wcet": 2, "offset": 1 << 60}
        )
        assert task.period == 1 << 60 and task.offset == 1 << 60

"""Task-set serialization: JSON load/save.

System integrators keep workload descriptions in version control; this
module defines the stable JSON schema for task sets and round-trips
them.  Schema (one object per task)::

    {
      "name": "brake_monitor",
      "period": 500,          # slots
      "wcet": 6,              # slots
      "deadline": 500,        # optional, defaults to period
      "vm_id": 0,
      "kind": "runtime",      # or "predefined"
      "criticality": "safety",# or "function" / "synthetic"
      "device": "eth0",
      "payload_bytes": 16,
      "offset": 0,            # optional
      "jitter": 0             # optional
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from repro.tasks.task import Criticality, IOTask, TaskKind
from repro.tasks.taskset import TaskSet

PathLike = Union[str, Path]

#: Fields every serialized task must carry.
REQUIRED_FIELDS = ("name", "period", "wcet")


def canonical_json(payload: object) -> str:
    """Canonical JSON: sorted keys, compact separators, no trailing space.

    Equal payloads serialize to byte-identical strings, so canonical
    forms can be compared (and digested) directly -- the contract behind
    controller snapshots and the admission service's decision log.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def task_to_dict(task: IOTask) -> dict:
    """Stable dictionary form of one task."""
    return {
        "name": task.name,
        "period": task.period,
        "wcet": task.wcet,
        "deadline": task.deadline,
        "vm_id": task.vm_id,
        "kind": task.kind.value,
        "criticality": task.criticality.value,
        "device": task.device,
        "payload_bytes": task.payload_bytes,
        "offset": task.offset,
        "jitter": task.jitter,
    }


def task_from_dict(data: dict) -> IOTask:
    """Parse one task object, with schema errors naming the field."""
    for field in REQUIRED_FIELDS:
        if field not in data:
            raise ValueError(
                f"task object missing required field {field!r}: {data!r}"
            )
    try:
        kind = TaskKind(data.get("kind", "runtime"))
    except ValueError:
        raise ValueError(
            f"unknown kind {data.get('kind')!r}; expected "
            f"{[k.value for k in TaskKind]}"
        ) from None
    try:
        criticality = Criticality(data.get("criticality", "function"))
    except ValueError:
        raise ValueError(
            f"unknown criticality {data.get('criticality')!r}; expected "
            f"{[c.value for c in Criticality]}"
        ) from None
    deadline = data.get("deadline")
    return IOTask(
        name=data["name"],
        period=_int_field(data, "period"),
        wcet=_int_field(data, "wcet"),
        deadline=None if deadline is None else _int_field(data, "deadline"),
        vm_id=_int_field(data, "vm_id", 0),
        kind=kind,
        criticality=criticality,
        device=data.get("device", "io0"),
        payload_bytes=_int_field(data, "payload_bytes", 64),
        offset=_int_field(data, "offset", 0),
        jitter=_int_field(data, "jitter", 0),
    )


def _int_field(data: dict, field: str, default: int = 0) -> int:
    """``data[field]`` as an exact int the analysis can take.

    Bools, floats and strings are refused rather than coerced (``50.5``
    must not become 50), and so is a value past the int64-safe horizon:
    the analysis fills int64 arrays with multiples of these fields.
    """
    # Imported here: repro.analysis imports this package.
    from repro.analysis.engine import INT64_SAFE_HORIZON

    value = data.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"task field {field!r} must be an integer, got {value!r}")
    if value > INT64_SAFE_HORIZON:
        raise ValueError(
            f"task field {field!r}={value} exceeds the int64-safe horizon "
            f"{INT64_SAFE_HORIZON}"
        )
    return value


def taskset_to_json(taskset: TaskSet, indent: int = 2) -> str:
    """Serialize a task set (name + task list) to a JSON string."""
    payload = {
        "name": taskset.name,
        "tasks": [task_to_dict(task) for task in taskset],
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def taskset_from_json(text: str) -> TaskSet:
    """Parse a task set from its JSON string form."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or "tasks" not in payload:
        raise ValueError(
            "task-set JSON must be an object with a 'tasks' array"
        )
    tasks: List[IOTask] = [task_from_dict(item) for item in payload["tasks"]]
    return TaskSet(tasks, name=payload.get("name", "taskset"))


def save_taskset(taskset: TaskSet, path: PathLike) -> Path:
    path = Path(path)
    path.write_text(taskset_to_json(taskset))
    return path


def load_taskset(path: PathLike) -> TaskSet:
    return taskset_from_json(Path(path).read_text())

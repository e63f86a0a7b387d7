"""Wire protocol of the admission service.

Two framings share one message vocabulary:

* **newline-JSON** (the native framing): each request and response is
  one canonical-JSON object per line over a TCP stream.  Canonical
  means sorted keys and compact separators
  (:func:`repro.tasks.serialization.canonical_json`), so equal
  responses are byte-identical -- the decision log the CI smoke job
  byte-compares is built from exactly these strings.
* **HTTP/1.1**: ``POST /v1/<op>`` with the same JSON object as the
  body (``GET`` is allowed for the read-only ops).  One request per
  connection (``Connection: close``); the response body is the same
  canonical JSON a newline-JSON client would receive.

Every request carries ``op`` plus a client-chosen ``seq`` (a
non-negative integer).  ``seq`` orders the service's decision log:
per-VM streams must be submitted in increasing ``seq`` on one
connection, and the log dump is sorted by ``seq`` -- which is what
makes the log independent of shard count and connection interleaving.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.analysis.gsched_test import GSchedResult
from repro.tasks.serialization import canonical_json

#: Version stamp on every message; bumped on incompatible change.
PROTOCOL_VERSION = 1

#: Every operation the service understands.  ``admit``/``withdraw``
#: mutate one VM's shard; ``analyze`` joins the next epoch batch;
#: the rest are control-plane.
OPS = (
    "admit",
    "withdraw",
    "analyze",
    "snapshot",
    "rebalance",
    "stats",
    "log",
    "ping",
    "shutdown",
)

#: Ops that read-only HTTP GET may invoke.
GET_OPS = ("stats", "log", "snapshot", "ping")

#: Fields each op requires beyond ``op`` and ``seq``.
_REQUIRED_FIELDS = {
    "admit": ("task",),
    "withdraw": ("vm_id", "task_name"),
    "analyze": (),
    "snapshot": (),
    "rebalance": ("shards",),
    "stats": (),
    "log": (),
    "ping": (),
    "shutdown": (),
}

#: Required fields that must hold an integer (bools rejected, as for
#: ``seq``): they pick a VM or size the pool, so a malformed value is
#: refused here rather than coerced.
_INT_FIELDS = {"withdraw": ("vm_id",), "rebalance": ("shards",)}


class ProtocolError(ValueError):
    """A malformed request; maps to a structured error response."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """One canonical-JSON line, newline-terminated."""
    return (canonical_json(message) + "\n").encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one newline-JSON frame into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def validate_request(message: Dict[str, Any]) -> Dict[str, Any]:
    """Check op/seq/fields; returns the message or raises ProtocolError."""
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {list(OPS)}")
    seq = message.get("seq", 0)
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ProtocolError(f"seq must be a non-negative integer, got {seq!r}")
    message["seq"] = seq
    for field in _REQUIRED_FIELDS[op]:
        if field not in message:
            raise ProtocolError(f"op {op!r} requires field {field!r}")
    for field in _INT_FIELDS.get(op, ()):
        _require_int(op, field, message[field])
    if op == "admit":
        task = message["task"]
        if not isinstance(task, dict):
            raise ProtocolError("task must be an object")
        _require_int(op, "task.vm_id", task.get("vm_id", 0))
    if op == "analyze" and not isinstance(message.get("tasks", []), list):
        raise ProtocolError("tasks must be a list of task objects")
    return message


def _require_int(op: str, field: str, value: Any) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(
            f"op {op!r} field {field!r} must be an integer, got {value!r}"
        )


def ok_response(seq: int, **payload: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"v": PROTOCOL_VERSION, "seq": seq, "ok": True}
    response.update(payload)
    return response


def error_response(
    seq: int, kind: str, message: str, **details: Any
) -> Dict[str, Any]:
    """A structured rejection: typed ``kind``, human ``message``, data.

    ``kind`` values the service emits: ``protocol`` (malformed
    request), ``configuration`` (Theorem-2 server-set failure, with
    ``failing_t`` and ``servers``), ``unknown_vm``, ``unknown_task``,
    ``shedding`` (back-pressure), ``quarantined`` (DegradationPolicy
    verdict), ``internal``.
    """
    error: Dict[str, Any] = {"kind": kind, "message": message}
    error.update(details)
    return {"v": PROTOCOL_VERSION, "seq": seq, "ok": False, "error": error}


def gsched_result_to_dict(result: Optional[GSchedResult]) -> Optional[Dict[str, Any]]:
    """JSON-safe form of a Theorem-2 result (``None`` passes through)."""
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
        "servers": [list(pair) for pair in result.servers],
    }


# -- HTTP adaptation ---------------------------------------------------------

_HTTP_METHODS = (b"POST", b"GET", b"PUT", b"HEAD", b"DELETE", b"OPTIONS", b"PATCH")


def looks_like_http(first_line: bytes) -> bool:
    """Frame sniffing: HTTP request lines start with a method token."""
    return any(first_line.startswith(method + b" ") for method in _HTTP_METHODS)


def parse_http_request_line(line: bytes) -> Tuple[str, str]:
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(f"malformed HTTP request line: {line!r}")
    return parts[0], parts[1]


def http_path_to_op(method: str, path: str) -> str:
    """Map ``POST /v1/<op>`` (or GET for read-only ops) to an op name."""
    prefix = "/v1/"
    if not path.startswith(prefix):
        raise ProtocolError(f"unknown path {path!r}; expected {prefix}<op>")
    op = path[len(prefix):].strip("/")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} in path {path!r}")
    if method == "GET":
        if op not in GET_OPS:
            raise ProtocolError(f"op {op!r} requires POST")
    elif method != "POST":
        raise ProtocolError(f"unsupported method {method!r}")
    return op


def format_http_response(body: Dict[str, Any], status: str = "200 OK") -> bytes:
    """Minimal HTTP/1.1 response carrying one canonical-JSON body."""
    payload = canonical_json(body).encode("utf-8")
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + payload


def http_status_for(response: Dict[str, Any]) -> str:
    """HTTP status line matching a service response object."""
    if response.get("ok"):
        return "200 OK"
    kind = response.get("error", {}).get("kind", "internal")
    return {
        "protocol": "400 Bad Request",
        "unknown_vm": "404 Not Found",
        "unknown_task": "404 Not Found",
        "configuration": "409 Conflict",
        "shedding": "503 Service Unavailable",
        "quarantined": "503 Service Unavailable",
    }.get(kind, "500 Internal Server Error")

"""The admission service layer: sharded controllers behind one socket.

``repro.serve`` turns the library's :class:`~repro.core.admission.AdmissionController`
into a long-running service: an asyncio front-end (newline-JSON and
HTTP/1.1 framings over one message vocabulary) routes per-VM admission
traffic to sharded worker processes, batches analyze requests per
scheduling epoch through :func:`repro.api.analyze_many`, and sheds
load through the :class:`~repro.core.manager.DegradationPolicy` when
a shard saturates.

Entry points: ``python -m repro.serve serve`` (run a server) and
``... client`` (drive one).
"""

from repro.serve.client import ServeClient, load_script, run_script
from repro.serve.protocol import (
    GET_OPS,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    validate_request,
)
from repro.serve.server import AdmissionServer, ServeConfig, load_system_file
from repro.serve.shard import (
    AdmissionShard,
    ShardConfig,
    ShardHandle,
    ShardPool,
    merge_snapshots,
    partition_snapshot,
    partition_vms,
)

__all__ = [
    "AdmissionServer",
    "AdmissionShard",
    "GET_OPS",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ShardConfig",
    "ShardHandle",
    "ShardPool",
    "decode_message",
    "encode_message",
    "error_response",
    "load_script",
    "load_system_file",
    "merge_snapshots",
    "ok_response",
    "partition_snapshot",
    "partition_vms",
    "run_script",
    "validate_request",
]

"""Protocol fuzzer: every frame gets a typed, bounded reply.

Hypothesis generates short frame sequences for one newline-JSON
connection to an in-process server: malformed JSON and non-object
frames, oversize ints and floats, bools or strings in int fields,
unknown ops and VMs, and ``seq`` values in any order.  For every frame
the server must

* reply within :data:`REPLY_TIMEOUT_S`, on the same connection (no hang,
  no dropped line);
* type every rejection with one of the documented request-level error
  kinds -- never ``internal``, which marks a server fault;
* leave the canonical JSON of ``pool.snapshot().to_payload()`` unchanged
  after any rejected request.
"""

import asyncio
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.protocol import OPS, decode_message, encode_message
from repro.serve.server import AdmissionServer, ServeConfig
from repro.tasks.serialization import canonical_json

PATTERN = [1 if slot % 5 == 0 else 0 for slot in range(20)]
SERVERS = [(0, 10, 2), (1, 10, 2), (2, 20, 3), (3, 20, 3)]
VMS = [vm_id for vm_id, _pi, _theta in SERVERS]

#: Error kinds a request can earn; ``internal`` is a server fault.
REQUEST_ERROR_KINDS = {
    "protocol",
    "unknown_vm",
    "unknown_task",
    "shedding",
    "quarantined",
}

#: Per-reply bound: the server answers each frame in milliseconds.
REPLY_TIMEOUT_S = 10.0

INT_FIELDS = ("period", "wcet", "deadline", "offset", "jitter", "payload_bytes", "vm_id")

HORIZON = 1 << 60

# -- strategies ---------------------------------------------------------------

seqs = st.integers(min_value=0, max_value=40)

bad_ints = st.one_of(
    st.integers(min_value=HORIZON + 1, max_value=1 << 80),
    st.floats(allow_infinity=False),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)


@st.composite
def tasks(draw, bad_field=True):
    task = {
        "name": draw(st.sampled_from(["a", "b", "c"])),
        "vm_id": draw(st.sampled_from(VMS)),
        "period": draw(st.sampled_from([20, 50, 100])),
        "wcet": draw(st.integers(1, 3)),
    }
    if bad_field and draw(st.booleans()):
        task[draw(st.sampled_from(INT_FIELDS))] = draw(bad_ints)
    return task


unknown_vms = st.one_of(
    st.integers(min_value=len(SERVERS), max_value=1 << 70),
    st.integers(min_value=-(1 << 70), max_value=-1),
)

messages = st.one_of(
    st.builds(lambda seq, task: {"op": "admit", "seq": seq, "task": task}, seqs, tasks()),
    st.builds(
        lambda seq, vm_id, task: {
            "op": "admit",
            "seq": seq,
            "task": dict(task, vm_id=vm_id),
        },
        seqs,
        unknown_vms,
        tasks(bad_field=False),
    ),
    st.builds(
        lambda seq, task_list: {"op": "analyze", "seq": seq, "tasks": task_list},
        seqs,
        st.lists(tasks(), max_size=2),
    ),
    st.builds(
        lambda seq, vm_id, name: {
            "op": "withdraw",
            "seq": seq,
            "vm_id": vm_id,
            "task_name": name,
        },
        seqs,
        st.one_of(st.sampled_from(VMS), unknown_vms, bad_ints),
        st.sampled_from(["a", "b", "zz"]),
    ),
    st.builds(
        lambda seq, shards: {"op": "rebalance", "seq": seq, "shards": shards},
        seqs,
        st.one_of(st.integers(-2, 8), bad_ints),
    ),
    st.builds(
        lambda op, seq: {"op": op, "seq": seq},
        st.text(max_size=8).filter(lambda op: op not in OPS),
        seqs,
    ),
    st.builds(
        lambda op, seq: {"op": op, "seq": seq},
        st.sampled_from(["ping", "stats", "snapshot", "log"]),
        st.one_of(seqs, st.integers(max_value=-1), bad_ints),
    ),
)


def _frame(message):
    return json.dumps(message).encode("utf-8")


non_objects = st.one_of(
    st.integers(), st.floats(), st.text(max_size=6), st.none(), st.lists(st.integers(), max_size=3)
).map(_frame)

garbage = st.binary(min_size=1, max_size=24).map(lambda raw: raw.replace(b"\n", b" "))

# One line each; a blank line closes a newline-JSON connection by design.
frames = st.one_of(messages.map(_frame), non_objects, garbage).filter(
    lambda frame: frame.strip()
)


# -- harness ------------------------------------------------------------------


def run_frames(frame_list):
    """Send ``frame_list`` on one connection; check every reply."""

    async def _main():
        server = AdmissionServer(
            ServeConfig(table_pattern=PATTERN, servers=SERVERS, shards=2)
        )
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

        async def send(frame):
            writer.write(frame + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
            assert line, f"connection dropped after {frame!r}"
            return decode_message(line)

        try:
            # Seed some state, and fix the framing to newline-JSON.
            assert (await send(_frame({"op": "ping", "seq": 0})))["ok"]
            for vm_id in VMS:
                seed = {"name": f"s{vm_id}", "vm_id": vm_id, "period": 100, "wcet": 1}
                assert (await send(_frame({"op": "admit", "seq": 0, "task": seed})))["ok"]
            for frame in frame_list:
                before = canonical_json(server.pool.snapshot().to_payload())
                reply = await send(frame)
                if not reply["ok"]:
                    kind = reply["error"]["kind"]
                    assert kind in REQUEST_ERROR_KINDS, (frame, reply)
                    after = canonical_json(server.pool.snapshot().to_payload())
                    assert after == before, frame
            assert (await send(_frame({"op": "ping", "seq": 1})))["ok"]
        finally:
            writer.close()
            await writer.wait_closed()
            await server.stop()

    asyncio.run(_main())


# The first pinned examples are the int-field repros: an oversize
# period used to be admitted and then wedge its VM (a later admit
# overflowed and dropped the connection), an oversize period in an
# analyze answered ``internal``, and a fractional one was truncated.
@example(
    [
        _frame({"op": "admit", "seq": 1, "task": {"name": "a", "vm_id": 0, "period": 2**70, "wcet": 1}}),
    ]
    + [
        _frame({"op": "admit", "seq": seq, "task": {"name": f"t{seq}", "vm_id": 0, "period": 100, "wcet": 1}})
        for seq in (2, 3, 4)
    ]
)
@example(
    [_frame({"op": "analyze", "seq": 1, "tasks": [{"name": "w", "vm_id": 0, "period": 2**70, "wcet": 1}]})]
)
@example([_frame({"op": "admit", "seq": 1, "task": {"name": "a", "vm_id": 0, "period": 50.5, "wcet": 1}})])
@example([b"{", b"[1,2]", b'"x"', b"\xff\xfe"])
@settings(max_examples=60)
@given(st.lists(frames, min_size=1, max_size=4))
def test_every_frame_gets_a_typed_bounded_reply(frame_list):
    run_frames(frame_list)

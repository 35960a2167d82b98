"""Wire codec: round trips over a real socket pair, framing errors, and
decode_message raising only WireError on any payload."""

import json
import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crossdock.dispatch import wire
from crossdock.dispatch.tasks import DockingTask
from crossdock.docking import DockConfig
from crossdock.errors import WireError

from conftest import sample_result


TASK = DockingTask("r1__l1", "r1.pdb", "l1.pdb", DockConfig(angular_step=90.0, top_k=5))
MESSAGES = [
    wire.Request("w-1"),
    wire.Assign(TASK),
    wire.Result("r1__l1", sample_result()),
    wire.TaskFailed("r1__bad", "NoAtomsError: structure has no atoms"),
    wire.Shutdown(),
]


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    with a, b:
        yield a, b


def test_every_message_type_round_trips_over_a_socket(pair):
    a, b = pair
    for msg in MESSAGES:
        wire.send_message(a, msg)
    assert [wire.recv_message(b) for _ in MESSAGES] == MESSAGES


def test_clean_eof_before_a_frame_returns_none(pair):
    a, b = pair
    wire.send_message(a, wire.Shutdown())
    a.shutdown(socket.SHUT_WR)
    assert wire.recv_message(b) == wire.Shutdown()
    assert wire.recv_message(b) is None


@pytest.mark.parametrize("cut", [2, 4, 10])
def test_truncated_frame_raises_wire_error(pair, cut):
    a, b = pair
    frame = wire.encode_message(wire.TaskFailed("r1__bad", "boom"))
    a.sendall(frame[:cut])
    a.shutdown(socket.SHUT_WR)
    with pytest.raises(WireError):
        wire.recv_message(b)


def test_oversized_length_prefix_raises_wire_error(pair):
    a, b = pair
    a.sendall(struct.pack(">I", wire.MAX_FRAME_BYTES + 1))
    with pytest.raises(WireError):
        wire.recv_message(b)


def _decodes_or_wire_error(payload: bytes) -> None:
    try:
        msg = wire.decode_message(payload)
    except WireError:
        return
    assert isinstance(msg, (wire.Request, wire.Assign, wire.Result,
                            wire.TaskFailed, wire.Shutdown))


@pytest.mark.parametrize("payload", [
    b"[" * 100000 + b"]" * 100000,  # deeper than the JSON decoder recurses
    b'{"v":1,"type":"ASSIGN","task":{"task_id":"t","receptor_path":"r",'
    b'"ligand_path":"l","config":[]}}',  # config is a list, not an object
    b'{"v":1,"type":"RESULT","task_id":"t","result":{"task_id":"t","receptor_id":"r",'
    b'"ligand_id":"l","grid":{"n":1e400,"pitch":1,"origin":[0,0,0]}}}',  # int(inf)
    b'{"v":1,"type":"REQUEST","worker_id":' + b"9" * 5000 + b"}",  # digit limit
    b'{"v":1,"type":"HELLO","worker_id":"w","slots":1}',  # HELLO is no longer a message type
])
def test_known_bad_payloads_raise_wire_error(payload):
    with pytest.raises(WireError):
        wire.decode_message(payload)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decode_arbitrary_bytes_raises_only_wire_error(payload):
    _decodes_or_wire_error(payload)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
VALID_BODIES = [json.loads(wire.encode_message(m)[4:]) for m in MESSAGES]


def _paths(value, prefix=()):
    """Every key/index path into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_decode_mutated_valid_payload_raises_only_wire_error(data):
    body = json.loads(json.dumps(data.draw(st.sampled_from(VALID_BODIES))))
    path = data.draw(st.sampled_from(list(_paths(body))))
    replacement = data.draw(JSON_VALUES)
    if not path:
        body = replacement
    else:
        parent = body
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = replacement
    _decodes_or_wire_error(json.dumps(body).encode("utf-8"))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MESSAGES), st.data())
def test_decode_byte_mutated_valid_payload_raises_only_wire_error(msg, data):
    payload = bytearray(wire.encode_message(msg)[4:])
    for _ in range(data.draw(st.integers(1, 4))):
        index = data.draw(st.integers(0, len(payload) - 1))
        action = data.draw(st.sampled_from(["flip", "drop", "insert"]))
        if action == "flip":
            payload[index] ^= data.draw(st.integers(1, 255))
        elif action == "drop" and len(payload) > 1:
            del payload[index]
        else:
            payload.insert(index, data.draw(st.integers(0, 255)))
    _decodes_or_wire_error(bytes(payload))

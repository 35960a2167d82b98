"""Wire codec: round trips over a real socket pair, bit-exact RESULT pose
columns, framing errors, decode_message raising only WireError on any
payload, and Channel's TCP_NODELAY."""

import json
import math
import socket
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crossdock.dispatch import wire
from crossdock.dispatch.tasks import DockingTask
from crossdock.docking import DockConfig, DockingResult, Pose
from crossdock.errors import WireError
from crossdock.grid import GridSpec, ScoringParams

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


def result_with(poses, n: int = 8) -> DockingResult:
    return DockingResult(
        task_id="r1__l1", receptor_id="r1", ligand_id="l1",
        grid_spec=GridSpec(n, 1.2, (0.5, -1.0, 2.25)), params=ScoringParams(),
        angular_step=90.0, top_poses=tuple(poses), best_score=12.5, wall_time=0.25,
    )


def payload_of(msg) -> bytes:
    return wire.encode_message(msg)[4:]


def with_header(top_poses: list[Pose] | None = None, **changes) -> bytes:
    """The payload of a RESULT of ``top_poses`` (sample_result's by
    default) with top-level header fields replaced."""
    result = sample_result() if top_poses is None else result_with(top_poses)
    msg = wire.Result("r1__l1", result)
    header, newline, columns = payload_of(msg).partition(b"\n")
    body = json.loads(header)
    body.update(changes)
    return json.dumps(body, separators=(",", ":")).encode() + newline + columns


RESULT_PAYLOAD = with_header()
RESULT_HEADER, _, RESULT_COLUMNS = RESULT_PAYLOAD.partition(b"\n")
ASSIGN_PAYLOAD = payload_of(wire.Assign(TASK))


@pytest.mark.parametrize("payload", [
    b"[" * 100000 + b"]" * 100000,  # deeper than the JSON decoder recurses
    b'{"v":2,"type":"ASSIGN","task":{"task_id":"t","receptor_path":"r",'
    b'"ligand_path":"l","config":[]}}',  # config is a list, not an object
    b'{"v":2,"type":"RESULT","task_id":"t","poses":0,"result":{"task_id":"t",'
    b'"receptor_id":"r","ligand_id":"l","grid":{"n":1e400,"pitch":1,"origin":[0,0,0]}}}'
    b"\n",  # int(inf)
    b'{"v":2,"type":"REQUEST","worker_id":' + b"9" * 5000 + b"}",  # digit limit
    b'{"v":2,"type":"HELLO","worker_id":"w","slots":1}',  # HELLO is no longer a message type
    pytest.param(RESULT_PAYLOAD[:-1], id="columns-one-byte-short"),
    pytest.param(RESULT_PAYLOAD + b"\0", id="columns-one-byte-long"),
    pytest.param(RESULT_HEADER, id="result-without-columns"),
    pytest.param(with_header([], poses=-1), id="pose-count-negative"),
    pytest.param(with_header(poses=2.0), id="pose-count-float"),
    pytest.param(with_header([Pose(0, 0, 0, 0, 1.0)], poses=True), id="pose-count-bool"),
    pytest.param(with_header(poses="2"), id="pose-count-string"),
    pytest.param(with_header([Pose(0, 0, 8, 0, 1.0)]), id="translation-equal-to-n"),
    pytest.param(with_header([Pose(0, 0, 0, -1, 1.0)]), id="translation-negative"),
    pytest.param(with_header([Pose(-1, 0, 0, 0, 1.0)]), id="rotation-negative"),
    pytest.param(ASSIGN_PAYLOAD.replace(b'"angular_step":90.0', b'"angular_step":7'),
                 id="assign-step-not-dividing-360"),
    pytest.param(ASSIGN_PAYLOAD + b"\n", id="assign-newline"),
    pytest.param(ASSIGN_PAYLOAD + b"\n{}", id="bytes-after-assign"),
    pytest.param(payload_of(wire.Shutdown()) + b"\n" + RESULT_COLUMNS,
                 id="columns-after-shutdown"),
    pytest.param(json.dumps({"v": 1, "type": "RESULT", "task_id": "r1__l1",
                             "result": sample_result().to_dict()}).encode(),
                 id="version-1-json-result"),
])
def test_known_bad_payloads_raise_wire_error(payload):
    with pytest.raises(WireError):
        wire.decode_message(payload)


def _score(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


SCORES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, _score(0x7FF0_0000_0000_0001),
                          _score(0xFFF8_0000_DEAD_BEEF), 5e-324, -1e308]) \
    | st.integers(0, 2**64 - 1).map(_score)
GRID_EDGES = [4, 54, 1000]


def _poses(n: int):
    index = st.integers(0, n - 1)
    return st.lists(st.builds(Pose, st.integers(0, 2**31 - 1), index, index, index, SCORES),
                    max_size=30)


def _exact(poses):
    return [(p.rotation_index, p.tx, p.ty, p.tz, struct.pack("<d", p.score)) for p in poses]


def _seeded_poses(k: int, n: int, seed: int) -> list[Pose]:
    rng = np.random.default_rng(seed)
    specials = [-0.0, math.inf, -math.inf, math.nan]
    scores = list(rng.normal(scale=100.0, size=k - len(specials))) + specials
    cells = rng.integers(0, n, size=(k, 3)).tolist()
    rotations = rng.integers(0, 2**31, size=k).tolist()
    return [Pose(r, x, y, z, float(s)) for r, (x, y, z), s in zip(rotations, cells, scores)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GRID_EDGES).flatmap(lambda n: st.tuples(st.just(n), _poses(n))))
@example((8, []))
@example((54, _seeded_poses(2000, 54, 83)))
def test_result_poses_round_trip_bit_for_bit(case):
    n, poses = case
    sent = wire.Result("r1__l1", result_with(poses, n))
    payload = payload_of(sent)
    assert len(payload.partition(b"\n")[2]) == 24 * len(poses)
    got = wire.decode_message(payload)
    assert type(got) is wire.Result and got.task_id == sent.task_id
    assert got.result.header() == sent.result.header()
    assert all(type(p) is Pose for p in got.result.top_poses)
    assert all(type(v) is int for p in got.result.top_poses for v in p[:4])
    assert all(type(p.score) is float for p in got.result.top_poses)
    assert _exact(got.result.top_poses) == _exact(poses)


def test_only_a_result_carries_bytes_after_its_json():
    for msg in MESSAGES:
        header, newline, columns = payload_of(msg).partition(b"\n")
        assert json.loads(header)["v"] == wire.PROTOCOL_VERSION == 2
        if isinstance(msg, wire.Result):
            assert newline and len(columns) == 24 * len(msg.result.top_poses)
        else:
            assert not newline


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
# The JSON of each message, and what follows it: a RESULT's pose columns.
VALID_BODIES = [(json.loads(header), newline + columns)
                for header, newline, columns in (payload_of(m).partition(b"\n") for m in MESSAGES)]


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
    body, columns = data.draw(st.sampled_from(VALID_BODIES))
    body = json.loads(json.dumps(body))
    path = data.draw(st.sampled_from(list(_paths(body))))
    replacement = data.draw(JSON_VALUES)
    if not path:
        body = replacement
    else:
        parent = body
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = replacement
    _decodes_or_wire_error(json.dumps(body).encode("utf-8") + columns)


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


def test_a_channel_over_a_unix_socket_pair_sends_and_receives():
    a, b = socket.socketpair()
    with a, b:
        sender, receiver = wire.Channel(a, "a"), wire.Channel(b, "b")
        for msg in MESSAGES:
            assert sender.send(msg)
        a.shutdown(socket.SHUT_WR)
        assert [receiver.receive() for _ in MESSAGES] == MESSAGES
        assert receiver.receive() is None


def test_a_channel_turns_nagle_off_on_both_ends_of_a_tcp_connection():
    with socket.create_server(("127.0.0.1", 0)) as server:
        with socket.create_connection(server.getsockname()) as connected:
            accepted, _ = server.accept()
            with accepted:
                for sock in (connected, accepted):
                    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 0
                worker, master = wire.Channel(connected, "m"), wire.Channel(accepted, "w")
                for sock in (connected, accepted):
                    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
                assert worker.send(wire.Result("r1__l1", sample_result()))
                assert master.receive() == wire.Result("r1__l1", sample_result())

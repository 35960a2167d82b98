"""Wire codec: round trips through Channel over socket pairs, bit-exact
RESULT pose columns in the frames of the tuple-of-Pose encoder, results that
compare and hash as before after a round trip, a codec that builds no Pose,
framing errors that end a channel, decode_message raising only WireError on
any payload, and Channel's TCP_NODELAY."""

import hashlib
import json
import logging
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

from conftest import result_dict, sample_result


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


def message(**body) -> bytes:
    """The JSON payload of ``body`` at this protocol version."""
    return json.dumps({"v": wire.PROTOCOL_VERSION, **body}, separators=(",", ":")).encode()


def recv_bytes(sock: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count and (chunk := sock.recv(count - len(data))):
        data += chunk
    return data


def test_every_message_type_round_trips_over_a_socket(pair):
    """A channel writes each message as its encode_message frame and reads
    such frames back as the messages."""
    a, b = pair
    frames = b"".join(wire.encode_message(msg) for msg in MESSAGES)
    channel = wire.Channel(a, "b")
    for msg in MESSAGES:
        assert channel.send(msg)
    assert recv_bytes(b, len(frames)) == frames
    b.sendall(frames)
    assert [channel.receive() for _ in MESSAGES] == MESSAGES


def test_clean_eof_before_a_frame_returns_none(pair, caplog):
    a, b = pair
    a.sendall(wire.encode_message(wire.Shutdown()))
    a.shutdown(socket.SHUT_WR)
    channel = wire.Channel(b, "a")
    with caplog.at_level(logging.WARNING, logger=wire.__name__):
        assert channel.receive() == wire.Shutdown()
        assert channel.receive() is None
        assert channel.receive() is None
    assert not [r for r in caplog.records if r.name == wire.__name__]


def assert_dropped(pair, caplog, reason: str) -> None:
    """Channel.receive on the second socket returns None and logs one
    warning, the WireError that names ``reason``; the first socket then
    reads EOF, and receive returns None from then on, whatever is still
    queued on the connection."""
    a, b = pair
    channel = wire.Channel(b, "a")
    with caplog.at_level(logging.WARNING, logger=wire.__name__):
        assert channel.receive() is None
        assert channel.receive() is None
    warnings = [r.getMessage() for r in caplog.records if r.name == wire.__name__]
    assert len(warnings) == 1 and warnings[0].startswith("dropping connection a: ")
    assert reason in warnings[0], warnings
    a.settimeout(5)
    assert a.recv(1) == b""


@pytest.mark.parametrize("cut", [2, 4, 10])
def test_truncated_frame_raises_wire_error(pair, caplog, cut):
    a, b = pair
    frame = wire.encode_message(wire.TaskFailed("r1__bad", "boom"))
    a.sendall(frame[:cut])
    a.shutdown(socket.SHUT_WR)
    assert_dropped(pair, caplog, "connection closed mid-frame")


def test_oversized_length_prefix_raises_wire_error(pair, caplog):
    a, b = pair
    a.sendall(struct.pack(">I", wire.MAX_FRAME_BYTES + 1) + wire.encode_message(wire.Shutdown()))
    assert_dropped(pair, caplog, f"exceeds the {wire.MAX_FRAME_BYTES} cap")


@pytest.mark.parametrize("payload, reason", [
    (message(type="HELLO", worker_id="w", slots=1), "unknown message type 'HELLO'"),
    (b"[" * 100000 + b"]" * 100000, "malformed payload: RecursionError"),
    (b"", "malformed payload: JSONDecodeError"),
], ids=["hello", "too-deep", "empty"])
def test_a_malformed_frame_ends_the_channel_before_the_valid_frame_behind_it(
        pair, caplog, payload, reason):
    a, b = pair
    a.sendall(struct.pack(">I", len(payload)) + payload + wire.encode_message(wire.Shutdown()))
    assert_dropped(pair, caplog, reason)


def test_a_shut_down_channel_returns_no_queued_frame(pair):
    a, b = pair
    a.sendall(wire.encode_message(wire.Shutdown()))
    channel = wire.Channel(b, "a")
    channel.shutdown()
    assert channel.receive() is None


def test_a_closed_channel_releases_its_socket_and_ends_the_connection(pair):
    a, b = pair
    channel = wire.Channel(b, "a")
    channel.close()
    assert channel.receive() is None
    assert not channel.send(wire.Shutdown())
    assert b.fileno() == -1
    a.settimeout(5)
    assert a.recv(1) == b""


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
GRID = sample_result().grid_spec.to_dict()  # n = 8


def with_result(**changes) -> bytes:
    """RESULT_PAYLOAD with fields of its "result" header replaced."""
    header, newline, columns = RESULT_PAYLOAD.partition(b"\n")
    body = json.loads(header)
    body["result"].update(changes)
    return json.dumps(body, separators=(",", ":")).encode() + newline + columns


def with_task(**changes) -> bytes:
    """ASSIGN_PAYLOAD with fields of its task replaced."""
    body = json.loads(ASSIGN_PAYLOAD)
    body["task"].update(changes)
    return json.dumps(body, separators=(",", ":")).encode()


def test_a_result_payload_with_its_own_header_fields_decodes():
    assert wire.decode_message(with_result(**sample_result().header())) == \
        wire.Result("r1__l1", sample_result())


@pytest.mark.parametrize("payload", [
    b"[" * 100000 + b"]" * 100000,  # deeper than the JSON decoder recurses
    pytest.param(message(type="ASSIGN", task={"task_id": "t", "receptor_path": "r",
                                              "ligand_path": "l", "config": []}),
                 id="assign-config-list"),
    pytest.param(b'{"v":%d,"type":"RESULT","task_id":"t","poses":0,"result":{"task_id":"t",'
                 b'"receptor_id":"r","ligand_id":"l","grid":{"n":1e400,"pitch":1,'
                 b'"origin":[0,0,0]}}}\n' % wire.PROTOCOL_VERSION,
                 id="grid-n-infinite"),  # int(inf)
    pytest.param(b'{"v":%d,"type":"REQUEST","worker_id":' % wire.PROTOCOL_VERSION
                 + b"9" * 5000 + b"}", id="request-digit-limit"),
    pytest.param(message(type="HELLO", worker_id="w", slots=1),
                 id="hello"),  # HELLO is no longer a message type
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
                             "result": result_dict(sample_result())}).encode(),
                 id="version-1-json-result"),
    pytest.param(b'{"type":"REQUEST","worker_id":"w-1","v":2}', id="version-2-request"),
    pytest.param(with_result(grid={**GRID, "n": 8.9}), id="grid-n-fraction"),
    pytest.param(with_result(grid={**GRID, "n": "8"}), id="grid-n-string"),
    pytest.param(with_result(grid={**GRID, "n": True}), id="grid-n-bool"),
    pytest.param(with_result(grid={**GRID, "pitch": "1.2"}), id="grid-pitch-string"),
    pytest.param(with_result(grid={**GRID, "origin": [0.5, "-1.0", 2.25]}),
                 id="grid-origin-string"),
    pytest.param(with_result(task_id=7), id="result-task-id-int"),
    pytest.param(with_header(task_id=7), id="header-task-id-int"),
    pytest.param(message(type="TASK_FAILED", task_id=7, error="e"), id="task-failed-id-int"),
    pytest.param(message(type="TASK_FAILED", task_id="t", error=None),
                 id="task-failed-error-null"),
    pytest.param(message(type="REQUEST", worker_id=7), id="request-worker-id-int"),
    pytest.param(message(type="REQUEST", worker_id=None), id="request-worker-id-null"),
    pytest.param(with_task(task_id=7), id="assign-task-id-int"),
    pytest.param(with_task(receptor_path=None), id="assign-receptor-path-null"),
    pytest.param(with_task(ligand_path=["l1.pdb"]), id="assign-ligand-path-list"),
    pytest.param(with_result(receptor_id=None), id="result-receptor-id-null"),
    pytest.param(with_result(ligand_id=["l1"]), id="result-ligand-id-list"),
    pytest.param(with_result(params={**ScoringParams().to_dict(), "surface_weight": math.nan}),
                 id="result-params-nan"),
    pytest.param(with_task(config={**TASK.config.to_dict(), "angualr_step": 30}),
                 id="assign-config-unknown-key"),
    pytest.param(with_task(config={**TASK.config.to_dict(),
                                   "params": {**ScoringParams().to_dict(), "atom_radus": 2.0}}),
                 id="assign-params-unknown-key"),
    pytest.param(with_result(params={**ScoringParams().to_dict(), "atom_radus": 2.0}),
                 id="result-params-unknown-key"),
    *(pytest.param(with_result(grid={**GRID, "pitch": pitch}), id=f"grid-pitch-{pitch}")
      for pitch in (math.nan, math.inf)),
    *(pytest.param(with_result(grid={**GRID, "origin": [0.5, value, 2.25]}),
                   id=f"grid-origin-{value}") for value in (math.nan, math.inf, -math.inf)),
])
def test_known_bad_payloads_raise_wire_error(payload):
    """Each payload at this version fails for its own fault, not its version."""
    with pytest.raises(WireError) as caught:
        wire.decode_message(payload)
    if b'"v":%d' % wire.PROTOCOL_VERSION in payload:
        assert "protocol version" not in str(caught.value)


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


def tuple_pose_columns(poses) -> bytes:
    """The column block as the encoder wrote it from a tuple of Pose."""
    if not poses:
        return b""
    rotation, tx, ty, tz, score = zip(*poses)
    indices = np.array((rotation, tx, ty, tz), dtype="<i4").T
    return indices.tobytes() + np.array(score, dtype="<f8").tobytes()


# sha256 of the RESULT frame of result_with(_seeded_poses(2000, 54, 83), 54),
# recorded at protocol version 2 with the encoder that packed a tuple of Pose.
FRAME_2000 = "706efa17dcd79ff85235c07caf962b8e757d7db5824f2e2230b3bce04a0206bc"


@pytest.mark.parametrize("poses, n", [([], 8), ([Pose(7, 1, 0, 3, -0.0)], 8),
                                      (_seeded_poses(2000, 54, 83), 54)], ids=["0", "1", "2000"])
def test_result_frames_are_the_bytes_of_the_tuple_encoder(poses, n):
    result = result_with(poses, n)
    body = {"type": "RESULT", "task_id": "r1__l1", "poses": len(poses),
            "result": result.header(), "v": wire.PROTOCOL_VERSION}
    payload = json.dumps(body, separators=(",", ":")).encode() + b"\n"
    payload += tuple_pose_columns(poses)
    frame = wire.encode_message(wire.Result("r1__l1", result))
    assert frame == struct.pack(">I", len(payload)) + payload
    if len(poses) == 2000:  # the same bytes as version 2's frame but for "v"
        version_2 = frame.replace(b',"v":%d}\n' % wire.PROTOCOL_VERSION, b',"v":2}\n', 1)
        assert version_2 != frame
        assert hashlib.sha256(version_2).hexdigest() == FRAME_2000


@pytest.mark.parametrize("k", [0, 1, 2000])
def test_a_result_equals_and_hashes_as_itself_after_a_round_trip(k):
    poses = _seeded_poses(2000, 54, 83)[:k]
    poses = [p._replace(score=0.5 * i) for i, p in enumerate(poses)]  # no NaN
    sent = result_with(poses, 54)
    got = wire.decode_message(payload_of(wire.Result("r1__l1", sent))).result
    assert got == sent and hash(got) == hash(sent)
    if k:
        other = result_with(poses[:-1] + [poses[-1]._replace(score=-1.0)], 54)
        assert got != other


def test_encoding_and_decoding_a_result_builds_no_pose(forbid_pose):
    result = result_with(_seeded_poses(2000, 54, 83), 54)
    forbid_pose()
    with pytest.raises(AssertionError, match="a Pose was built"):
        result.top_poses[0]
    got = wire.decode_message(payload_of(wire.Result("r1__l1", result))).result
    assert len(got.top_poses) == 2000
    assert got.top_poses.indices.tobytes() == result.top_poses.indices.tobytes()
    assert got.top_poses.scores.tobytes() == result.top_poses.scores.tobytes()
    assert not got.top_poses.indices.flags.writeable
    assert not got.top_poses.scores.flags.writeable


def test_only_a_result_carries_bytes_after_its_json():
    for msg in MESSAGES:
        header, newline, columns = payload_of(msg).partition(b"\n")
        assert json.loads(header)["v"] == wire.PROTOCOL_VERSION == 3
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

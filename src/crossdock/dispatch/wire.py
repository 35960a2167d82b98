"""Length-prefixed wire protocol for master-worker dispatch.

Framing: a 4-byte big-endian unsigned payload length, then the payload.
Every payload starts with compact UTF-8 JSON: an object with a "type" field
from {REQUEST, ASSIGN, RESULT, TASK_FAILED, SHUTDOWN} and "v": 3. There is
no handshake. Each worker lane sends one REQUEST when it starts; the first
one, which names the worker, registers it with the master. From then on a
lane's reply to an ASSIGN, a RESULT or a TASK_FAILED, is also its request
for the next task, so one task costs two frames: ASSIGN and the reply. The
master answers each request with one ASSIGN while tasks remain, and ends
the batch with one SHUTDOWN per connection. TASK_FAILED names a task whose
executor raised and carries the error text. Every message but RESULT is
that JSON alone. Ids, paths and error texts are JSON strings.

A RESULT carries its poses as packed columns after the JSON header: the
header holds "task_id", "poses" (the pose count K) and "result", the
DockingResult fields but top_poses; then one b"\n" (compact JSON never
holds a raw newline), then a (K, 4) little-endian int32 block of
(rotation_index, tx, ty, tz) rows and a (K,) little-endian float64 block of
scores, 24 bytes per pose, so scores cross bit for bit. These are the
bytes of the result's PoseColumns, and decoding returns read-only views of
the frame's bytes as the new result's columns, so no Pose is built on
either side. Decoding checks that every id, path and error is a string,
that K is an int >= 0, that the columns are exactly 24 K bytes, that every
translation lies in [0, grid n) and that no rotation index is negative.
The rotation index is not checked against generate_rotations(angular_step):
the step comes from the peer, and a hostile one would make the decoder
build a huge rotation set. Nor is a RESULT's task_id checked against its
result's own: the benchmark's no-op executor returns one canned result for
every task.

A malformed payload, whatever its bytes, raises WireError and nothing else:
bytes after the JSON of any other message are malformed too, and so is
every message of another version. Version 1 sent RESULT poses as JSON, and
a version 2 lane sent a REQUEST before every task, so masters and workers
must be upgraded together. Either end drops a connection at the first frame
of another version, so a worker facing an older master ends instead of
waiting for an ASSIGN.

Channel is one end of a connection, the same class on the master and the
worker, and the only reader and writer of frames, with four calls: send,
receive, shutdown and close. Sends and receives each have their own lock,
so several threads (a worker's lanes) can share one channel: they take
turns on receive, one whole frame each. receive returns None at EOF, on a
malformed, oversized or truncated frame (a HELLO from a worker that
predates registration by REQUEST is malformed) and once a failed send or a
shutdown has ended the connection; a frame queued behind a bad one is
never returned. On TCP it turns Nagle's algorithm off, so that a small
frame is not held back waiting for the ACK of the last one.
"""

from __future__ import annotations

import json
import logging
import socket
import struct
import threading
from dataclasses import dataclass

import numpy as np

from ..docking import DockingResult, PoseColumns
from ..errors import WireError
from ..grid import GridSpec, str_field
from .tasks import DockingTask

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "Request",
    "Assign",
    "Result",
    "TaskFailed",
    "Shutdown",
    "Message",
    "encode_message",
    "decode_message",
    "Channel",
]

log = logging.getLogger(__name__)

PROTOCOL_VERSION = 3
MAX_FRAME_BYTES = 256 * 1024 * 1024  # sanity bound against corrupt prefixes

_LEN = struct.Struct(">I")
_POSE_BYTES = 4 * 4 + 8  # four int32 indices and a float64 score


@dataclass(frozen=True)
class Request:
    worker_id: str


@dataclass(frozen=True)
class Assign:
    task: DockingTask


@dataclass(frozen=True)
class Result:
    task_id: str
    result: DockingResult


@dataclass(frozen=True)
class TaskFailed:
    task_id: str
    error: str


@dataclass(frozen=True)
class Shutdown:
    pass


Message = Request | Assign | Result | TaskFailed | Shutdown


def _payload(msg: Message) -> dict:
    if isinstance(msg, Request):
        return {"type": "REQUEST", "worker_id": msg.worker_id}
    if isinstance(msg, Assign):
        return {"type": "ASSIGN", "task": msg.task.to_dict()}
    if isinstance(msg, Result):
        return {"type": "RESULT", "task_id": msg.task_id,
                "poses": len(msg.result.top_poses), "result": msg.result.header()}
    if isinstance(msg, TaskFailed):
        return {"type": "TASK_FAILED", "task_id": msg.task_id, "error": msg.error}
    if isinstance(msg, Shutdown):
        return {"type": "SHUTDOWN"}
    raise WireError(f"unknown message {msg!r}")


def _pose_columns(poses: PoseColumns) -> bytes:
    return poses.indices.tobytes() + poses.scores.tobytes()


def _read_poses(columns: bytes, k, n: int) -> PoseColumns:
    """The K poses packed in ``columns``, checked against grid edge n."""
    if type(k) is not int or len(columns) != _POSE_BYTES * k:  # so k >= 0
        raise WireError(f"{len(columns)} bytes of pose columns for {k!r} poses")
    indices = np.frombuffer(columns, dtype="<i4", count=4 * k).reshape(k, 4)
    if k and (indices.min() < 0 or indices[:, 1:].max() >= n):
        raise WireError(f"a pose index is negative or a translation is not below {n}")
    return PoseColumns(indices, np.frombuffer(columns, dtype="<f8", offset=16 * k))


def encode_message(msg: Message) -> bytes:
    body = _payload(msg)
    body["v"] = PROTOCOL_VERSION
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    if isinstance(msg, Result):
        payload += b"\n" + _pose_columns(msg.result.top_poses)
    return _LEN.pack(len(payload)) + payload


def decode_message(payload: bytes) -> Message:
    try:
        header, newline, columns = payload.partition(b"\n")
        body = json.loads(header.decode("utf-8"))
        if not isinstance(body, dict):
            raise WireError(f"payload is a JSON {type(body).__name__}, not an object")
        version = body.get("v")
        if version != PROTOCOL_VERSION:
            raise WireError(f"unsupported protocol version {version!r}")
        kind = body.get("type")
        if kind == "RESULT":
            if not newline:
                raise WireError("a RESULT without its pose columns")
            d = body["result"]
            poses = _read_poses(columns, body["poses"], GridSpec.from_dict(d["grid"]).n)
            return Result(task_id=str_field(body["task_id"]),
                          result=DockingResult.from_header(d, poses))
        if newline:
            raise WireError(f"bytes after the JSON of a {kind!r} message")
        if kind == "REQUEST":
            return Request(worker_id=str_field(body["worker_id"]))
        if kind == "ASSIGN":
            return Assign(task=DockingTask.from_dict(body["task"]))
        if kind == "TASK_FAILED":
            return TaskFailed(task_id=str_field(body["task_id"]),
                              error=str_field(body["error"]))
        if kind == "SHUTDOWN":
            return Shutdown()
        raise WireError(f"unknown message type {kind!r}")
    # Bad UTF-8 or JSON, nesting too deep, or fields of the wrong shape.
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError,
            RecursionError) as exc:
        raise WireError(f"malformed payload: {type(exc).__name__}: {exc}") from None


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """``count`` bytes, or fewer when the peer closes first."""
    chunks, got = [], 0
    while got < count and (chunk := sock.recv(count - got)):
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


class Channel:
    """One end of a framed connection; ``peer`` names the other end in logs."""

    def __init__(self, sock: socket.socket, peer: str):
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.peer = peer
        self._send_lock = threading.Lock()
        self._receive_lock = threading.Lock()
        self._ended = False  # receive returns None from here on

    def send(self, msg: Message) -> bool:
        """Send one frame; False, with the socket shut down, once the
        connection is gone."""
        frame = encode_message(msg)
        try:
            with self._send_lock:
                self.sock.sendall(frame)
            return True
        except OSError:
            self.shutdown()  # ends receive(), so the reader sees the loss
            return False

    def receive(self) -> Message | None:
        """The next frame; None at EOF, on a socket error or on a malformed,
        oversized or truncated frame, which is logged and shuts the
        connection down so that the peer sees it end. Once it has returned
        None, it always does."""
        with self._receive_lock:
            if self._ended:
                return None
            try:
                prefix = _recv_exact(self.sock, _LEN.size)
                if len(prefix) == _LEN.size:
                    (length,) = _LEN.unpack(prefix)
                    if length > MAX_FRAME_BYTES:
                        raise WireError(
                            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
                    payload = _recv_exact(self.sock, length)
                    if len(payload) == length:
                        return decode_message(payload)
                if prefix:
                    raise WireError("connection closed mid-frame")
            except WireError as exc:
                log.warning("dropping connection %s: %s", self.peer, exc)
                self.shutdown()
            except OSError:
                pass
            self._ended = True
            return None

    def shutdown(self) -> None:
        """Wake a blocked reader and end the connection; close() alone does
        not wake a recv blocked in another thread."""
        self._ended = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        """End the connection and release its socket."""
        self.shutdown()
        self.sock.close()

"""Length-prefixed JSON wire protocol for master-worker dispatch.

Framing: a 4-byte big-endian unsigned payload length, then the UTF-8 JSON
payload. Every message is an object with a "type" field from {HELLO,
REQUEST, ASSIGN, RESULT, TASK_FAILED, SHUTDOWN} and "v": 1. TASK_FAILED
names a task whose executor raised and carries the error text. A malformed
payload, whatever its bytes, raises WireError and nothing else.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass

from ..docking import DockingResult
from ..errors import WireError
from .tasks import DockingTask

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "Hello",
    "Request",
    "Assign",
    "Result",
    "TaskFailed",
    "Shutdown",
    "Message",
    "encode_message",
    "decode_message",
    "send_message",
    "recv_message",
]

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 256 * 1024 * 1024  # sanity bound against corrupt prefixes

_LEN = struct.Struct(">I")


@dataclass(frozen=True)
class Hello:
    worker_id: str
    slots: int


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


Message = Hello | Request | Assign | Result | TaskFailed | Shutdown


def _payload(msg: Message) -> dict:
    if isinstance(msg, Hello):
        return {"type": "HELLO", "worker_id": msg.worker_id, "slots": msg.slots}
    if isinstance(msg, Request):
        return {"type": "REQUEST", "worker_id": msg.worker_id}
    if isinstance(msg, Assign):
        return {"type": "ASSIGN", "task": msg.task.to_dict()}
    if isinstance(msg, Result):
        return {"type": "RESULT", "task_id": msg.task_id, "result": msg.result.to_dict()}
    if isinstance(msg, TaskFailed):
        return {"type": "TASK_FAILED", "task_id": msg.task_id, "error": msg.error}
    if isinstance(msg, Shutdown):
        return {"type": "SHUTDOWN"}
    raise WireError(f"unknown message {msg!r}")


def encode_message(msg: Message) -> bytes:
    body = _payload(msg)
    body["v"] = PROTOCOL_VERSION
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(payload)) + payload


def decode_message(payload: bytes) -> Message:
    try:
        body = json.loads(payload.decode("utf-8"))
        if not isinstance(body, dict):
            raise WireError(f"payload is a JSON {type(body).__name__}, not an object")
        version = body.get("v")
        if version != PROTOCOL_VERSION:
            raise WireError(f"unsupported protocol version {version!r}")
        kind = body.get("type")
        if kind == "HELLO":
            return Hello(worker_id=str(body["worker_id"]), slots=int(body["slots"]))
        if kind == "REQUEST":
            return Request(worker_id=str(body["worker_id"]))
        if kind == "ASSIGN":
            return Assign(task=DockingTask.from_dict(body["task"]))
        if kind == "RESULT":
            return Result(
                task_id=str(body["task_id"]),
                result=DockingResult.from_dict(body["result"]),
            )
        if kind == "TASK_FAILED":
            return TaskFailed(task_id=str(body["task_id"]), error=str(body["error"]))
        if kind == "SHUTDOWN":
            return Shutdown()
        raise WireError(f"unknown message type {kind!r}")
    # Bad UTF-8 or JSON, nesting too deep, or fields of the wrong shape.
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError,
            RecursionError) as exc:
        raise WireError(f"malformed payload: {type(exc).__name__}: {exc}") from None


def send_message(sock: socket.socket, msg: Message) -> None:
    sock.sendall(encode_message(msg))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Exactly ``count`` bytes, or b"" on EOF before the first of them."""
    chunks, got = [], 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            if got:
                raise WireError("connection closed mid-frame")
            return b""
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Message | None:
    """Read one framed message; None on clean EOF before a frame starts."""
    header = _recv_exact(sock, _LEN.size)
    if not header:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    payload = _recv_exact(sock, length)
    if len(payload) < length:
        raise WireError("connection closed mid-frame")
    return decode_message(payload)

"""Worker side of dispatch: the lane loop, and the TCP worker that runs it.

A lane (run_lane) loops REQUEST -> ASSIGN -> execute -> RESULT, or
TASK_FAILED when the executor raises, and keeps serving either way.
worker_loop runs ``slots`` lanes over one connection, whose reader thread
feeds the ASSIGN replies (interchangeable between lanes) into a shared
queue; SHUTDOWN, EOF or a malformed frame stops every lane. local_pool_run
runs the same lanes over in-memory connections.
"""

from __future__ import annotations

import logging
import os
import queue
import socket
import threading
import time
from typing import Callable

from ..docking import DockingResult
from ..errors import DispatchError, WireError
from . import wire
from .tasks import DockingTask, execute_task

__all__ = ["run_lane", "worker_loop"]

log = logging.getLogger(__name__)


def _connect_with_backoff(
    connect: tuple[str, int],
    backoff_initial: float,
    backoff_cap: float,
    max_retries: int,
) -> socket.socket:
    delay = backoff_initial
    for attempt in range(max_retries + 1):
        try:
            return socket.create_connection(connect)
        except OSError as exc:
            if attempt == max_retries:
                raise DispatchError(
                    f"cannot reach master at {connect[0]}:{connect[1]} "
                    f"after {max_retries + 1} attempts: {exc}"
                ) from exc
            log.info("connect to %s:%s failed (%s); retrying in %.1f s",
                     connect[0], connect[1], exc, delay)
            time.sleep(delay)
            delay = min(delay * 2, backoff_cap)
    raise AssertionError("unreachable")


def run_lane(
    send: Callable[[wire.Message], bool],
    recv: Callable[[], wire.Message | None],
    executor: Callable[[DockingTask], DockingResult],
    worker_id: str,
) -> int:
    """Serve tasks until SHUTDOWN or the end of the connection; returns
    the number of results delivered.

    ``send`` returns False once the connection is gone; ``recv`` returns
    None at its end.
    """
    delivered = 0
    while send(wire.Request(worker_id)):
        msg = recv()
        if msg is None or isinstance(msg, wire.Shutdown):
            break
        if not isinstance(msg, wire.Assign):
            log.warning("lane %s ignoring unexpected %r", worker_id, msg)
            continue
        task_id = msg.task.task_id
        try:
            reply = wire.Result(task_id, executor(msg.task))
        except Exception as exc:
            log.exception("task %s failed", task_id)
            reply = wire.TaskFailed(task_id, f"{type(exc).__name__}: {exc}")
        if not send(reply):
            break
        if isinstance(reply, wire.Result):
            delivered += 1
    return delivered


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def worker_loop(
    connect: tuple[str, int],
    slots: int = 4,
    executor=execute_task,
    worker_id: str | None = None,
    backoff_initial: float = 1.0,
    backoff_cap: float = 30.0,
    max_retries: int = 6,
) -> int:
    """Serve tasks from the master at ``connect`` until the batch drains.

    Returns the number of results this worker delivered; a failing task
    costs only itself. Raises DispatchError when the master stays
    unreachable after the retry budget (1 s backoff doubling to the 30 s
    cap by default).
    """
    if slots < 1:
        raise DispatchError(f"slots must be >= 1, got {slots}")
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    sock = _connect_with_backoff(connect, backoff_initial, backoff_cap, max_retries)

    send_lock = threading.Lock()
    responses: queue.Queue = queue.Queue()

    def send(msg) -> bool:
        try:
            with send_lock:
                wire.send_message(sock, msg)
            return True
        except OSError:
            _shutdown(sock)  # ends the reader, which stops every lane
            return False

    def reader() -> None:
        try:
            while True:
                msg = wire.recv_message(sock)
                if msg is None or isinstance(msg, wire.Shutdown):
                    break
                responses.put(msg)
        except WireError as exc:
            log.warning("dropping the master connection: %s", exc)
        except OSError:
            pass
        finally:
            for _ in range(slots):
                responses.put(None)

    if not send(wire.Hello(worker_id, slots)):
        sock.close()
        raise DispatchError("master connection lost during handshake")
    reader_thread = threading.Thread(target=reader, daemon=True)
    reader_thread.start()
    delivered = [0] * slots

    def lane(index: int) -> None:
        delivered[index] = run_lane(send, responses.get, executor, worker_id)

    lanes = [threading.Thread(target=lane, args=(i,), daemon=True) for i in range(slots)]
    for t in lanes:
        t.start()
    try:
        for t in lanes:
            t.join()
    finally:
        _shutdown(sock)
        sock.close()
        reader_thread.join(timeout=5)

    completed = sum(delivered)
    log.info("worker %s done: %d task(s) completed", worker_id, completed)
    return completed

"""Worker side of dispatch: the lane loop, and the TCP worker that runs it.

A lane (run_lane) loops REQUEST -> ASSIGN -> execute -> RESULT, or
TASK_FAILED when the executor raises, and keeps serving either way.
worker_loop runs ``slots`` lanes over one wire.Channel; the lanes' first
REQUESTs register the worker with the master. There is no reader thread:
the lanes take turns on Channel.receive, and any lane may take any ASSIGN,
since they are interchangeable. A lane stops on SHUTDOWN, EOF, a malformed
frame or a failed send, and the first lane to stop shuts the connection
down, which stops the others.
local_pool_run runs the same lanes over in-memory connections. Either way
the lanes of one process share its cores: in a lane, a threads=0 task
docks on the logical cores divided by the lane count
(docking.thread_budget).
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from typing import Callable

from ..docking import DockingResult, thread_budget
from ..errors import DispatchError
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
    lanes: int = 1,
) -> int:
    """Serve tasks until SHUTDOWN or the end of the connection; returns
    the number of results delivered.

    ``send`` returns False once the connection is gone; ``recv`` returns
    None at its end. ``lanes`` is the number of lanes in this process; the
    executor runs under their shared thread budget.
    """
    delivered = 0
    with thread_budget(lanes):
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
                reason = f"{type(exc).__name__}: {exc}"
                # One line per failed attempt; the traceback only when verbose.
                log.warning("task %s failed: %s", task_id, reason,
                            exc_info=log.isEnabledFor(logging.INFO))
                reply = wire.TaskFailed(task_id, reason)
            if not send(reply):
                break
            if isinstance(reply, wire.Result):
                delivered += 1
    return delivered


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
    costs only itself, and a lost connection ends the lanes with the count
    so far (0 when it is lost before the first task). Raises DispatchError
    when the master stays unreachable after the retry budget (1 s backoff
    doubling to the 30 s cap by default).
    """
    if slots < 1:
        raise DispatchError(f"slots must be >= 1, got {slots}")
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    channel = wire.Channel(
        _connect_with_backoff(connect, backoff_initial, backoff_cap, max_retries),
        f"{connect[0]}:{connect[1]}",
    )
    delivered = [0] * slots

    def lane(index: int) -> None:
        try:
            delivered[index] = run_lane(channel.send, channel.receive, executor, worker_id,
                                        slots)
        finally:
            channel.shutdown()  # the master sends one SHUTDOWN for all the lanes

    lanes = [threading.Thread(target=lane, args=(i,), daemon=True) for i in range(slots)]
    for t in lanes:
        t.start()
    try:
        for t in lanes:
            t.join()
    finally:
        channel.shutdown()
        channel.sock.close()

    completed = sum(delivered)
    log.info("worker %s done: %d task(s) completed", worker_id, completed)
    return completed

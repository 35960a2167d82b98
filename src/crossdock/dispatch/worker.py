"""Worker side of dispatch: the lane loop, the TCP worker that runs it, and
the lanes' docking processes.

A lane (run_lane) sends one REQUEST when it starts, then loops ASSIGN ->
execute -> RESULT, or TASK_FAILED when the executor raises, and keeps
serving either way: each reply is also its request for the next task.
worker_loop runs ``slots`` lanes over one wire.Channel; the lanes' first
REQUESTs register the worker with the master. There is no reader thread:
the lanes take turns on Channel.receive, and any lane may take any ASSIGN,
since they are interchangeable. A lane stops on SHUTDOWN, EOF, a malformed
frame or a failed send, and the first lane to stop shuts the connection
down, which stops the others.
local_pool_run runs the same lanes over in-memory connections.

Called without an executor, worker_loop and local_pool_run give each lane
its own docking process (LaneProcess), forked before any lane thread
starts, so the lanes dock in parallel instead of taking turns on one GIL.
A lane thread hands its process one task at a time down a pipe and gets
back the DockingResult, or the exception the task raised, with the
process's stack as its cause. A process that dies costs its task one
attempt, and the lane forks a replacement for its next task. An explicit
executor runs in the lane thread itself. Either way a threads=0 task docks
on the logical cores divided by the lane count (docking.thread_budget).
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
import traceback
from typing import Callable

from ..docking import DockingResult, thread_budget
from ..errors import DispatchError
from . import tasks, wire
from .tasks import DockingTask

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


# A forked child inherits every file descriptor of this process, so it must
# close the parent's end of each lane's pipe: a pipe ends only once every
# copy of its parent end is closed. The lock is held while a lane process is
# forked and while a parent end is opened or closed, so that each child
# knows every parent end it holds.
_fork_lock = threading.Lock()
_parent_ends: set = set()  # this process's ends of its lane processes' pipes


class _ChildStack(Exception):
    """The stack of an exception raised in a lane process, as the text of
    its frames: the cause of the exception that the lane re-raises."""


def _stack(exc: BaseException) -> str:
    frames = "".join(traceback.format_tb(exc.__traceback__))
    return f"in docking process {os.getpid()}:\n{frames.rstrip()}"


def _child_main(conn, inherited, lanes: int) -> None:
    """A lane process: dock each task that arrives on ``conn`` under the
    lanes' thread budget and send back (result, None), or (exception, its
    stack); return at the end of the pipe. ``inherited`` holds the
    parent's ends of every lane's pipe, which are closed first, so that a
    pipe ends as soon as the parent is gone."""
    import signal

    for end in inherited:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    with thread_budget(lanes):
        while True:
            try:
                task = conn.recv()
            except EOFError:
                return
            try:
                reply = tasks.execute_task(task), None
            except Exception as exc:
                reply = exc, _stack(exc)
            try:
                conn.send(reply)
            except OSError:  # the parent is gone
                return
            except Exception as exc:  # the reply does not pickle: send why not
                conn.send((exc, _stack(exc)))


class LaneProcess:
    """The executor of one lane: a child process, forked from this one,
    that runs tasks.execute_task on each task it is handed. A task whose
    process dies raises DispatchError, and the next call forks a
    replacement. ``lanes`` is the lane count of the run, whose thread
    budget the process docks under."""

    def __init__(self, lanes: int):
        self.lanes = lanes
        self._conn = self._process = None
        self._stopped = False
        self._fork()

    def _fork(self) -> None:
        import multiprocessing  # here: it takes milliseconds, and only lane processes need it

        context = multiprocessing.get_context("fork")
        with _fork_lock:
            if self._stopped:
                raise DispatchError("the lane is stopping")
            conn, child_end = context.Pipe()
            process = context.Process(target=_child_main, daemon=True,
                                      args=(child_end, (*_parent_ends, conn), self.lanes))
            try:
                process.start()
            except BaseException:
                conn.close()
                raise
            finally:
                child_end.close()
            _parent_ends.add(conn)
            self._conn, self._process = conn, process

    def __call__(self, task: DockingTask) -> DockingResult:
        if self._process is None:
            self._fork()
        process = self._process
        try:
            self._conn.send(task)
            value, stack = self._conn.recv()
        except (EOFError, OSError):
            self.close()
            raise DispatchError(
                f"docking process {process.pid} exited with code {process.exitcode}") from None
        if stack is None:
            return value
        raise value from _ChildStack(stack)

    def stop(self) -> None:
        """Kill the process at once, and fork no other."""
        with _fork_lock:
            self._stopped = True
            if self._process is not None:
                self._process.kill()

    def close(self) -> None:
        """Close the pipe, which ends the process once its task is done,
        and join the process."""
        with _fork_lock:
            conn, process = self._conn, self._process
            self._conn = self._process = None
            _parent_ends.discard(conn)
        if process is not None:
            conn.close()
            process.join()


def fork_lane_processes(lanes: int) -> list[LaneProcess]:
    """One LaneProcess per lane, forked in this thread; if a fork fails,
    the processes already forked are closed."""
    children: list[LaneProcess] = []
    try:
        for _ in range(lanes):
            children.append(LaneProcess(lanes))
    except BaseException:
        for child in children:
            child.close()
        raise
    return children


def run_lane(
    send: Callable[[wire.Message], bool],
    recv: Callable[[], wire.Message | None],
    executor: Callable[[DockingTask], DockingResult],
    worker_id: str,
    lanes: int = 1,
) -> int:
    """Serve tasks until SHUTDOWN or the end of the connection; returns
    the number of results delivered.

    The lane sends one REQUEST, then one RESULT or TASK_FAILED per ASSIGN,
    which the master takes as its next request; any other message is
    logged and skipped, and sends nothing. ``send`` returns False once the
    connection is gone; ``recv`` returns None at its end. ``lanes`` is the
    number of lanes in this process; the executor runs under their shared
    thread budget.
    """
    delivered = 0
    with thread_budget(lanes):
        if not send(wire.Request(worker_id)):
            return 0
        while (msg := recv()) is not None and not isinstance(msg, wire.Shutdown):
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
    executor: Callable[[DockingTask], DockingResult] | None = None,
    worker_id: str | None = None,
    backoff_initial: float = 1.0,
    backoff_cap: float = 30.0,
    max_retries: int = 6,
) -> int:
    """Serve tasks from the master at ``connect`` until the batch drains.

    Without an ``executor``, each lane docks in its own LaneProcess, forked
    before the worker connects, so that no child holds the socket; every
    process is joined before this returns or raises.

    Returns the number of results this worker delivered; a failing task
    costs only itself, and a lost connection ends the lanes with the count
    so far (0 when it is lost before the first task). Raises DispatchError
    when the master stays unreachable after the retry budget (1 s backoff
    doubling to the 30 s cap by default).
    """
    if slots < 1:
        raise DispatchError(f"slots must be >= 1, got {slots}")
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    children = fork_lane_processes(slots) if executor is None else []
    executors = children or [executor] * slots
    delivered = [0] * slots
    try:
        channel = wire.Channel(
            _connect_with_backoff(connect, backoff_initial, backoff_cap, max_retries),
            f"{connect[0]}:{connect[1]}",
        )

        def lane(index: int) -> None:
            try:
                delivered[index] = run_lane(channel.send, channel.receive, executors[index],
                                            worker_id, slots)
            finally:
                channel.shutdown()  # the master sends one SHUTDOWN for all the lanes

        lanes = [threading.Thread(target=lane, args=(i,), daemon=True) for i in range(slots)]
        for t in lanes:
            t.start()
        try:
            for t in lanes:
                t.join()
        finally:
            channel.close()
    except BaseException:
        for child in children:
            child.stop()
        raise
    finally:
        for child in children:
            child.close()

    completed = sum(delivered)
    log.info("worker %s done: %d task(s) completed", worker_id, completed)
    return completed

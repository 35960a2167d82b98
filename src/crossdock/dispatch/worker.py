"""Worker side of dispatch: the lane loop, the TCP worker that runs it, and
the supervisor of forked lanes.

A lane (run_lane) sends one REQUEST when it starts, then loops ASSIGN ->
execute -> RESULT, or TASK_FAILED when the executor raises, and keeps
serving either way: each reply is also its request for the next task. It
stops on SHUTDOWN, EOF, a malformed frame or a failed send.

Without an executor, worker_loop is a supervisor (supervise_lanes) that
forks ``slots`` lane processes. Each opens its own connection to the
master and runs run_lane on it with tasks.execute_task, under the
worker's id, so the lanes dock in parallel and count as one worker. A
lane that exits abnormally has closed its connection, which costs its
task one attempt as for any lost worker, and is replaced. The supervisor
starts no thread, so every fork runs in a single-threaded process.
local_pool_run forks the same supervisor onto a local socket.

With an executor, ``slots`` lane threads share one wire.Channel and call
it in this process. They take turns on Channel.receive, and any lane may
take any ASSIGN; the first lane to stop shuts the connection down, which
stops the others. local_pool_run runs such threads over in-memory
connections. Either way a threads=0 task docks on the logical cores
divided by the lane count (docking.thread_budget).
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import threading
import time
import traceback
from typing import Callable, Sequence

from ..docking import DockingResult, thread_budget
from ..errors import DispatchError
from . import tasks, wire
from .tasks import DockingTask

__all__ = ["run_lane", "worker_loop"]

log = logging.getLogger(__name__)


def _connect(address) -> socket.socket:
    if isinstance(address, tuple):
        return socket.create_connection(address)
    sock = socket.socket(socket.AF_UNIX)
    try:
        sock.connect(address)
    except OSError:
        sock.close()
        raise
    return sock


def _connect_with_backoff(
    address,
    backoff_initial: float,
    backoff_cap: float,
    max_retries: int,
) -> wire.Channel:
    """A channel to the master at ``address``, (host, port) over TCP or the
    path of a local socket, connected under the backoff budget."""
    peer = address if isinstance(address, str) else f"{address[0]}:{address[1]}"
    delay = backoff_initial
    for attempt in range(max_retries + 1):
        try:
            return wire.Channel(_connect(address), peer)
        except OSError as exc:
            if attempt == max_retries:
                raise DispatchError(
                    f"cannot reach master at {peer} after {max_retries + 1} attempts: {exc}"
                ) from exc
            log.info("connect to %s failed (%s); retrying in %.1f s", peer, exc, delay)
            time.sleep(delay)
            delay = min(delay * 2, backoff_cap)
    raise AssertionError("unreachable")


def fork_process(main: Callable[..., object], *args) -> int:
    """Run main(*args) in a forked child and return its pid. The child
    never returns to the caller's stack: it exits 0 when main returns, and
    1, with the traceback on stderr, when main raises. Raises
    DispatchError on a platform without fork."""
    if not hasattr(os, "fork"):
        raise DispatchError("lane processes need os.fork, which this platform does not have")
    if pid := os.fork():
        return pid
    code = 1
    try:
        main(*args)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


def _lane_process(address, worker_id: str, lanes: int,
                  backoff: tuple[float, float, int] | None, report: int) -> None:
    """A forked lane: serve the master at ``address`` with run_lane, then
    write to the ``report`` pipe one JSON line, the results delivered or
    why the master was not reached. A replacement, whose ``backoff`` is
    None, connects once: a refusal means the master is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the supervisor's to handle
    try:
        channel = _connect_with_backoff(address, *(backoff or (0.0, 0.0, 0)))
    except DispatchError as exc:
        outcome = str(exc) if backoff else 0
    else:
        try:
            outcome = run_lane(channel.send, channel.receive, tasks.execute_task,
                               worker_id, lanes)
        finally:
            channel.close()
    os.write(report, (json.dumps(outcome) + "\n").encode())


def supervise_lanes(address, worker_ids: Sequence[str],
                    backoff: tuple[float, float, int]) -> int:
    """Fork a lane process per id in ``worker_ids`` to serve the master at
    ``address``, and a replacement for each lane that exits abnormally;
    once every lane has ended, return the results they reported (a lane
    that dies takes its count with it). Raises DispatchError when no lane
    reached the master, after killing and reaping every live lane on any
    error. Starts no thread, and reaps any child of the calling process.
    """
    read_end, write_end = os.pipe()
    lanes: dict[int, int] = {}  # pid -> index into worker_ids

    def fork(index: int, backoff: tuple[float, float, int] | None) -> None:
        pid = fork_process(_lane_process, address, worker_ids[index], len(worker_ids),
                           backoff, write_end)
        lanes[pid] = index

    try:
        for index in range(len(worker_ids)):
            fork(index, backoff)
        while lanes:
            pid, status = os.wait()
            index = lanes.pop(pid, None)
            if index is not None and (code := os.waitstatus_to_exitcode(status)):
                log.warning("lane process %d exited with code %d", pid, code)
                fork(index, None)
    except BaseException:
        for pid in lanes:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(write_end)  # every lane has exited, so the pipe now ends
        with open(read_end, encoding="utf-8") as pipe:
            outcomes = [json.loads(line) for line in pipe]
    counts = [o for o in outcomes if isinstance(o, int)]
    if outcomes and not counts:
        raise DispatchError(outcomes[0])
    return sum(counts)


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
    number of lanes that share this host's cores; the executor runs under
    their shared thread budget.
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

    Without an ``executor``, the calling process supervises ``slots`` lane
    processes (supervise_lanes), each with its own connection, and starts
    no thread. Only a lane's first connect waits under the retry budget; a
    replacement whose connect is refused ends, so a worker whose master is
    gone does not wait it out. With an ``executor``, ``slots`` lane
    threads call it over one connection.

    Returns the number of results this worker delivered; a failing task
    costs only itself, and a lost connection ends the lanes with the count
    so far (0 when it is lost before the first task). Raises DispatchError
    when the master stays unreachable after the retry budget (1 s backoff
    doubling to the 30 s cap by default), or, without an executor, when
    the platform cannot fork.
    """
    if slots < 1:
        raise DispatchError(f"slots must be >= 1, got {slots}")
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    backoff = (backoff_initial, backoff_cap, max_retries)
    if executor is None:
        completed = supervise_lanes(connect, [worker_id] * slots, backoff)
    else:
        channel = _connect_with_backoff(connect, *backoff)
        delivered = [0] * slots

        def lane(index: int) -> None:
            try:
                delivered[index] = run_lane(channel.send, channel.receive, executor,
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
        completed = sum(delivered)
    log.info("worker %s done: %d task(s) completed", worker_id, completed)
    return completed

"""Master-side task dispatch: FIFO queue, failure requeue, exactly-once
results, for TCP workers (master_run) or this host's lanes (local_pool_run:
lane processes over a local socket, or lane threads in memory).

The batch state has one lock. The thread that receives a message (a TCP
connection's reader, or an in-process lane posting it) applies it under
that lock, so state transitions are atomic per message no matter how many
workers are connected; the caller of master_run or local_pool_run only
waits for the batch to end. A worker registers with its first REQUEST,
which names it. Each connection's reader reports the connection closed as
its last call, exactly once, however the connection ends: EOF, a malformed
frame, or a failed send, which shuts the socket down and so ends the
reader. A RESULT or TASK_FAILED counts only from the connection that
holds its task. Two events charge a task one attempt: a TASK_FAILED, and
the close of the holding connection, which charges every task it held. A
charged task is requeued at the front of the queue, or recorded as
permanently failed with its last failure reason once ``max_attempts`` is
spent. There is no timeout-based straggler reassignment.

A lane asks for work with its first REQUEST and then with each RESULT or
TASK_FAILED it sends, so every such message from a registered connection,
stale or not, parks it, in the same pass through the lock that records the
message. A reply from a connection that never sent a REQUEST is
discarded, as it holds no task, and never parked. Parked lanes are served
in arrival order: at once while the queue holds a task, otherwise by a
requeued task (any in-flight task may yet fail) or, at batch completion,
by the SHUTDOWN broadcast.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import queue
import signal
import socket
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..docking import TSV_HEADER, DockingResult, splice_json
from ..errors import DispatchError
from . import wire
from .tasks import DockingTask
from .worker import fork_process, run_lane, supervise_lanes

__all__ = [
    "DispatchPolicy",
    "BatchState",
    "BatchReport",
    "master_run",
    "local_pool_run",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DispatchPolicy:
    max_attempts: int = 3
    startup_timeout: float = 60.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise DispatchError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0 < self.startup_timeout < math.inf:
            raise DispatchError(f"startup_timeout must be in (0, inf), got {self.startup_timeout}")


@dataclass
class BatchReport:
    """Outcome of one batch: every task is either completed or failed."""

    task_order: tuple[str, ...]
    completed: dict[str, DockingResult]
    failed: dict[str, int]  # task_id -> attempts spent
    errors: dict[str, str]  # failed task_id -> last failure reason
    per_worker: dict[str, int]  # worker_id -> completed-task count
    wall_time: float

    @property
    def total(self) -> int:
        return len(self.task_order)

    def to_json(self) -> str:
        """The report as sorted-key JSON: "tasks", "results" (each
        completed result's to_json, in task order), "failed" (task_id,
        attempts and error, by task_id), "per_worker" and "wall_time_s".
        The poses go straight from each result's columns into the text."""
        results = ", ".join(
            self.completed[tid].to_json() for tid in self.task_order if tid in self.completed
        )
        summary = {
            "tasks": list(self.task_order),
            "failed": [
                {"task_id": tid, "attempts": self.failed[tid], "error": self.errors[tid]}
                for tid in sorted(self.failed)
            ],
            "per_worker": dict(sorted(self.per_worker.items())),
            "wall_time_s": self.wall_time,
        }
        return splice_json(summary, "results", f"[{results}]")

    def results_tsv(self) -> str:
        lines = [TSV_HEADER]
        for tid in self.task_order:
            if tid in self.completed:
                lines.append(self.completed[tid].to_tsv_line())
        return "\n".join(lines) + "\n"

    def score_matrix_tsv(self, receptor_ids: Sequence[str], ligand_ids: Sequence[str]) -> str:
        """Receptors-by-ligands matrix of best scores; failed cells empty."""
        lines = ["\t".join(["receptor"] + list(ligand_ids))]
        for rid in receptor_ids:
            row = [rid]
            for lid in ligand_ids:
                result = self.completed.get(f"{rid}__{lid}")
                row.append(repr(result.best_score) if result is not None else "")
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"

    def run_record_tsv(self, instance_name: str, n_instances: int) -> str | None:
        """One run record in the analyzer's ingest format, or None when no
        pair completed: the analyzer takes only positive counts and times.
        The wall time has 3 decimals, or 3 significant digits where 3
        decimals would read 0."""
        from ..costmodel import RUN_COLUMNS  # here, so that a worker never loads the analyzer
        if not self.completed or self.wall_time <= 0:
            return None
        wall = f"{self.wall_time:.3f}"
        if float(wall) == 0:
            wall = f"{self.wall_time:.3g}"
        row = f"{instance_name}\t{n_instances}\t{wall}\t{len(self.completed)}"
        return "\t".join(RUN_COLUMNS) + "\n" + row + "\n"


class BatchState:
    """Task bookkeeping. pending, in-flight, completed and permanently
    failed are pairwise disjoint and always partition the batch."""

    def __init__(self, tasks: Sequence[DockingTask], max_attempts: int,
                 transition_hook: Callable[["BatchState"], None] | None = None):
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise DispatchError("task ids are not unique within the batch")
        self.task_order: tuple[str, ...] = tuple(ids)
        self.total = len(tasks)
        self.max_attempts = max_attempts
        self.pending: deque[DockingTask] = deque(tasks)
        # task_id -> (task, holding connection), in assignment order
        self.in_flight: dict[str, tuple[DockingTask, object]] = {}
        self.completed: dict[str, DockingResult] = {}
        self.failed_attempts: dict[str, int] = {}
        self.permanently_failed: dict[str, int] = {}
        self.last_error: dict[str, str] = {}
        self._hook = transition_hook
        self._check(*self.task_order)

    def _check(self, *moved: str, requeued: Sequence[str] = ()) -> None:
        """Raise DispatchError unless the four groups still hold every task
        once, then call the transition hook.

        Every transition checks conservation (the group sizes sum to the
        batch), that each id it ``moved`` sits in at most one of in_flight,
        completed and permanently_failed, and that each id it ``requeued``
        to pending sits in none of them. __init__ checks every id of the
        batch; from there this keeps the partition by induction at O(1) per
        transition, and every id is checked once more when the batch
        becomes terminal.
        """
        done = len(self.completed) + len(self.permanently_failed)
        if len(self.pending) + len(self.in_flight) + done != self.total:
            raise DispatchError(
                f"conservation violated: {len(self.pending)} pending + "
                f"{len(self.in_flight)} in flight + {len(self.completed)} completed + "
                f"{len(self.permanently_failed)} failed != {self.total}"
            )
        if done == self.total:
            moved = self.task_order
        in_flight, completed, failed = self.in_flight, self.completed, self.permanently_failed
        for tid in moved:
            if (tid in in_flight) + (tid in completed) + (tid in failed) > 1:
                raise DispatchError(f"task states overlap: {tid}")
        for tid in requeued:
            if (tid in in_flight) + (tid in completed) + (tid in failed) > 0:
                raise DispatchError(f"task states overlap: {tid} is requeued")
        if self._hook is not None:
            self._hook(self)

    def all_terminal(self) -> bool:
        return len(self.completed) + len(self.permanently_failed) == self.total

    def assign_next(self, conn: object) -> DockingTask:
        task = self.pending.popleft()
        self.in_flight[task.task_id] = (task, conn)
        self._check(task.task_id)
        return task

    def record_result(self, conn: object, task_id: str, result: DockingResult) -> bool:
        """True when recorded, which it is only from ``conn`` holding the
        task; others are discarded (and logged by the caller)."""
        held = self.in_flight.get(task_id)
        if held is None or held[1] is not conn:
            return False
        del self.in_flight[task_id]
        self.completed[task_id] = result
        self._check(task_id)
        return True

    def _charge(self, task: DockingTask, reason: str) -> bool:
        """Charge one attempt to an in-flight task: requeue it at the front,
        or fail it permanently once max_attempts is spent. True when
        requeued."""
        tid = task.task_id
        del self.in_flight[tid]
        attempts = self.failed_attempts.get(tid, 0) + 1
        self.failed_attempts[tid] = attempts
        self.last_error[tid] = reason
        if attempts >= self.max_attempts:
            self.permanently_failed[tid] = attempts
            log.warning("task %s permanently failed after %d attempts: %s",
                        tid, attempts, reason)
            return False
        self.pending.appendleft(task)
        return True

    def task_failed(self, conn: object, task_id: str, reason: str) -> bool:
        """Charge task_id one attempt if ``conn`` holds it; True when charged.
        A failure for a task the connection does not hold is stale and
        changes nothing."""
        held = self.in_flight.get(task_id)
        if held is None or held[1] is not conn:
            return False
        if self._charge(held[0], reason):
            self._check(requeued=(task_id,))
        else:
            self._check(task_id)
        return True

    def worker_lost(self, conn: object) -> list[str]:
        """Charge one attempt to every task the lost connection held;
        returns their ids in assignment order, which is also the order in
        which the requeued ones head ``pending``."""
        held = [task for task, c in self.in_flight.values() if c is conn]
        # appendleft order: earliest assigned first
        requeued = [task.task_id for task in reversed(held) if self._charge(task, "worker lost")]
        ids = [task.task_id for task in held]
        self._check(*ids, requeued=requeued)
        return ids


class _MasterCore:
    """Transport-agnostic batch state under one lock. Conns expose
    send(msg), which never raises. The thread that receives a message
    applies it with handle(conn, msg), and a connection's end with
    handle(conn, None), its last call; run() waits for the batch to end."""

    def __init__(self, tasks: Sequence[DockingTask], policy: DispatchPolicy,
                 transition_hook=None):
        if not tasks:
            raise DispatchError("task list is empty")
        self.state = BatchState(tasks, policy.max_attempts, transition_hook)
        self.policy = policy
        self.workers: dict[object, str] = {}  # conn -> worker_id
        self.per_worker: dict[str, int] = {}
        self.parked: deque[object] = deque()  # conns, one per lane awaiting a task
        # Lanes may start serving before run() is called.
        self._started = self._idle_since = time.monotonic()
        # The lock guards everything here. run() waits on the condition
        # for the batch to be over, or for the last worker to leave.
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._error: Exception | None = None  # the first, re-raised by run()
        self._over = False  # terminal or failed: handle() changes nothing more

    def _register(self, conn: object, worker_id: str) -> None:
        self.workers[conn] = worker_id
        self.per_worker.setdefault(worker_id, 0)

    def _serve_parked(self) -> None:
        while self.parked and self.state.pending:
            conn = self.parked.popleft()
            task = self.state.assign_next(conn)
            # A failed send ends the connection's reader, whose close
            # charges the task.
            conn.send(wire.Assign(task))

    def _apply(self, conn: object, msg: wire.Message | None) -> None:
        if msg is None:
            self.parked = deque(c for c in self.parked if c is not conn)
            charged = self.state.worker_lost(conn)
            log.info("worker %s lost; charged %d task(s)", self.workers.get(conn), len(charged))
            self.workers.pop(conn, None)
            if not self.workers:
                self._idle_since = time.monotonic()
            self._serve_parked()
            return
        if isinstance(msg, wire.Request):
            if conn not in self.workers:
                self._register(conn, msg.worker_id)
        elif isinstance(msg, wire.Result):
            if self.state.record_result(conn, msg.task_id, msg.result):
                self.per_worker[self.workers[conn]] += 1  # a holder is registered
            else:
                log.info("discarding duplicate/stale result for %s", msg.task_id)
        elif isinstance(msg, wire.TaskFailed):
            if not self.state.task_failed(conn, msg.task_id, msg.error):
                log.info("discarding stale failure for %s", msg.task_id)
        else:
            log.warning("ignoring unexpected message %r", msg)
            return
        if conn in self.workers:  # the message also asks for the next task
            self.parked.append(conn)
            self._serve_parked()

    def handle(self, conn: object, msg: wire.Message | None) -> None:
        """Apply one message from ``conn``, or its close when ``msg`` is
        None, in the calling thread. Once the batch is terminal or has
        failed, later events change nothing. An error in the bookkeeping
        (a DispatchError from BatchState, or the transition hook's own) is
        kept for run() to raise in its caller's thread; this never raises."""
        with self._lock:
            if self._over:
                return
            try:
                self._apply(conn, msg)
            except Exception as exc:
                self._error = exc
            self._over = self._error is not None or self.state.all_terminal()
            if self._over or not self.workers:
                self._changed.notify()

    def run(self) -> BatchReport:
        with self._changed:
            while not self._over:
                timeout = None
                if not self.workers and not self.state.in_flight:
                    # No live workers: bounded wait for the first (or a
                    # replacement) connection instead of hanging forever.
                    waited = time.monotonic() - self._idle_since
                    timeout = self.policy.startup_timeout - waited
                    if timeout <= 0:
                        raise DispatchError(
                            f"no worker connected within {self.policy.startup_timeout} s"
                        )
                self._changed.wait(timeout)
        # From here on, handle() changes nothing.
        if self._error is not None:
            raise self._error
        for conn in self.workers:
            conn.send(wire.Shutdown())
        return BatchReport(
            task_order=self.state.task_order,
            completed=dict(self.state.completed),
            failed=dict(self.state.permanently_failed),
            errors={tid: self.state.last_error[tid] for tid in self.state.permanently_failed},
            per_worker=dict(self.per_worker),
            wall_time=time.monotonic() - self._started,
        )


def _reader(conn: wire.Channel, core: _MasterCore) -> None:
    try:
        while (msg := conn.receive()) is not None:
            core.handle(conn, msg)
    finally:
        core.handle(conn, None)


def _serve(core: _MasterCore, server: socket.socket) -> BatchReport:
    """Run the batch over the connections that ``server`` accepts, one
    reader thread each, until every one is shut down; closes ``server``."""
    readers: list[tuple[wire.Channel, threading.Thread]] = []

    def acceptor() -> None:
        while True:
            try:
                sock, addr = server.accept()
            except OSError:  # the server socket was shut down
                break
            # A local socket's peer has no address.
            conn = wire.Channel(sock, f"{addr[0]}:{addr[1]}" if addr else "a local lane")
            reader = threading.Thread(target=_reader, args=(conn, core), daemon=True)
            readers.append((conn, reader))
            reader.start()

    accept_thread = threading.Thread(target=acceptor, daemon=True)
    accept_thread.start()
    try:
        return core.run()
    finally:
        # shutdown wakes the blocked accept at once; close alone may not
        server.shutdown(socket.SHUT_RDWR)
        server.close()
        accept_thread.join(timeout=5)
        for conn, reader in readers:
            conn.shutdown()  # wakes the reader if blocked in recv; close does not
            reader.join(timeout=5)
            conn.close()


def master_run(
    tasks: Sequence[DockingTask],
    listen: tuple[str, int],
    policy: DispatchPolicy | None = None,
    transition_hook=None,
) -> BatchReport:
    """Serve a batch to TCP workers; returns when every task is terminal,
    once every connection is shut down and its reader has ended. Each
    connection's reader thread applies its messages to the batch state;
    connections that name one worker id count as one worker.

    ``transition_hook(state)`` is called once at the start and after every
    state transition, in the thread that caused it and under the master's
    lock, so calls never overlap; it must not block or call back into the
    dispatch. An exception it raises ends the batch and is raised here, as
    is a DispatchError from the bookkeeping. Raises DispatchError when the
    task list is empty, when the endpoint cannot be bound or when no worker
    connects within ``policy.startup_timeout``.
    """
    core = _MasterCore(tasks, policy or DispatchPolicy(), transition_hook)
    try:
        server = socket.create_server(listen)
    except OSError as exc:
        raise DispatchError(f"cannot bind {listen[0]}:{listen[1]}: {exc}") from exc
    return _serve(core, server)


class _LocalConn:
    """In-memory worker connection: the master sends into ``inbox``, the
    lane applies its messages to the batch state in its own thread."""

    def __init__(self, core: _MasterCore):
        self.core = core
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()

    def send(self, msg) -> None:
        self.inbox.put(msg)

    def post(self, msg) -> bool:
        self.core.handle(self, msg)
        return True


def _lane_supervisor(server: socket.socket, address: str, worker_ids: list[str]) -> None:
    os.setpgid(0, 0)  # Ctrl-C at a terminal reaches the master alone
    server.close()
    supervise_lanes(address, worker_ids, (0.0, 0.0, 0))  # the master is listening


def local_pool_run(
    tasks: Sequence[DockingTask],
    workers: int,
    policy: DispatchPolicy | None = None,
    executor: Callable[[DockingTask], DockingResult] | None = None,
    transition_hook=None,
) -> BatchReport:
    """master_run for ``workers`` single-slot lanes on this host, local-0 to
    local-{workers - 1}; ``transition_hook`` is called as in master_run.

    Without an ``executor``, this forks, before the master starts any
    thread, a supervisor (worker.supervise_lanes) in its own process group
    whose lane processes connect over a local socket in a private
    directory. It is reaped before this returns; on an error (a raising
    hook, Ctrl-C) its group is killed first. With an ``executor``, the
    lanes are threads of this process over in-memory connections. A
    threads=0 task docks on its lane's share of the cores. As in
    master_run, an empty task list is a DispatchError; a task whose
    executor raises, or whose lane dies ("worker lost"), costs only itself
    one attempt.
    """
    if workers < 1:
        raise DispatchError(f"workers must be >= 1, got {workers}")
    policy = policy or DispatchPolicy()
    core = _MasterCore(tasks, policy, transition_hook)
    worker_ids = [f"local-{i}" for i in range(workers)]
    if executor is None:
        return _forked_pool_run(core, worker_ids)
    conns = [_LocalConn(core) for _ in range(workers)]
    for conn, worker_id in zip(conns, worker_ids):
        # Registered here, not by its first REQUEST: a lane is in per_worker
        # even when the others drain the batch before it starts.
        core._register(conn, worker_id)
    lanes = [
        threading.Thread(target=run_lane, daemon=True,
                         args=(conn.post, conn.inbox.get, executor, worker_id, workers))
        for conn, worker_id in zip(conns, worker_ids)
    ]
    for lane in lanes:
        lane.start()
    try:
        return core.run()
    except BaseException:  # raised before run() broadcast its SHUTDOWN
        for conn in conns:
            conn.send(wire.Shutdown())
        raise
    finally:
        for lane in lanes:
            lane.join(timeout=10)


def _forked_pool_run(core: _MasterCore, worker_ids: list[str]) -> BatchReport:
    # Seeded here, as a lane may connect after the others drain the batch.
    core.per_worker.update(dict.fromkeys(worker_ids, 0))
    with tempfile.TemporaryDirectory(prefix="crossdock-") as workdir, \
            socket.socket(socket.AF_UNIX) as server:
        address = os.path.join(workdir, "master")
        server.bind(address)
        server.listen()
        supervisor = fork_process(_lane_supervisor, server, address, worker_ids)
        with contextlib.suppress(OSError):  # the group is set before any kill
            os.setpgid(supervisor, supervisor)
        try:
            return _serve(core, server)
        except BaseException:
            with contextlib.suppress(OSError):
                os.killpg(supervisor, signal.SIGKILL)
            raise
        finally:
            os.waitpid(supervisor, 0)

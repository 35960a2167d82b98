"""Master-side task dispatch: FIFO queue, failure requeue, exactly-once
results.

All batch-state mutations happen on one event loop fed by connection events,
so state transitions are atomic per message no matter how many workers are
connected. A worker registers with its first REQUEST, which names it. Each
connection's reader posts "closed" as its last event, exactly once, however
the connection ends: EOF, a malformed frame, or a failed send, which shuts
the socket down and so ends the reader. Two events charge a task one
attempt: a TASK_FAILED for it from the connection that holds it, and the
"closed" of that connection, which charges every task it held. A charged task
is requeued at the front of the queue, or recorded as permanently failed
with its last failure reason once ``max_attempts`` is spent. There is no
timeout-based straggler reassignment.

Every REQUEST is parked and parked lanes are served in arrival order: at
once while the queue holds a task, otherwise by a requeued task (any
in-flight task may yet fail) or, at batch completion, by the SHUTDOWN
broadcast.
"""

from __future__ import annotations

import json
import logging
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..docking import TSV_HEADER, DockingResult
from ..errors import DispatchError
from . import wire
from .tasks import DockingTask, execute_task
from .worker import run_lane

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

    def to_json_dict(self) -> dict:
        return {
            "tasks": list(self.task_order),
            "results": [
                self.completed[tid].to_dict() for tid in self.task_order if tid in self.completed
            ],
            "failed": [
                {"task_id": tid, "attempts": self.failed[tid], "error": self.errors[tid]}
                for tid in sorted(self.failed)
            ],
            "per_worker": dict(sorted(self.per_worker.items())),
            "wall_time_s": self.wall_time,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

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

    def run_record_tsv(self, instance_name: str, n_instances: int) -> str:
        """One run record in the analyzer's ingest format."""
        header = "instance\tn_instances\twall_time_s\tn_pairs"
        row = f"{instance_name}\t{n_instances}\t{self.wall_time:.3f}\t{len(self.completed)}"
        return header + "\n" + row + "\n"


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

    def _check(self, *moved: str) -> None:
        """Raise DispatchError unless the four groups still hold every task
        once, then call the transition hook.

        Every transition checks conservation (the group sizes sum to the
        batch) and that each id it ``moved`` sits in at most one of
        in_flight, completed and permanently_failed (in none when requeued
        to pending). __init__ checks every id of the batch; from there this
        keeps the partition by induction at O(1) per transition, and every
        id is checked once more when the batch becomes terminal.
        """
        n = len(self.pending) + len(self.in_flight) + len(self.completed) + len(
            self.permanently_failed
        )
        if n != self.total:
            raise DispatchError(
                f"conservation violated: {len(self.pending)} pending + "
                f"{len(self.in_flight)} in flight + {len(self.completed)} completed + "
                f"{len(self.permanently_failed)} failed != {self.total}"
            )
        if self.all_terminal():
            moved = self.task_order
        groups = (self.in_flight, self.completed, self.permanently_failed)
        overlap = {tid for tid in moved if sum(tid in g for g in groups) > 1}
        if overlap:
            raise DispatchError(f"task states overlap: {sorted(overlap)}")
        if self._hook is not None:
            self._hook(self)

    def all_terminal(self) -> bool:
        return len(self.completed) + len(self.permanently_failed) == self.total

    def assign_next(self, conn: object) -> DockingTask:
        task = self.pending.popleft()
        self.in_flight[task.task_id] = (task, conn)
        self._check(task.task_id)
        return task

    def record_result(self, task_id: str, result: DockingResult) -> bool:
        """True when newly recorded; duplicates and stale results are
        discarded (and logged by the caller)."""
        if task_id in self.completed or task_id not in self.in_flight:
            return False
        del self.in_flight[task_id]
        self.completed[task_id] = result
        self._check(task_id)
        return True

    def _charge(self, task: DockingTask, reason: str) -> None:
        """Charge one attempt to an in-flight task: requeue it at the front,
        or fail it permanently once max_attempts is spent."""
        tid = task.task_id
        del self.in_flight[tid]
        attempts = self.failed_attempts.get(tid, 0) + 1
        self.failed_attempts[tid] = attempts
        self.last_error[tid] = reason
        if attempts >= self.max_attempts:
            self.permanently_failed[tid] = attempts
            log.warning("task %s permanently failed after %d attempts: %s",
                        tid, attempts, reason)
        else:
            self.pending.appendleft(task)

    def task_failed(self, conn: object, task_id: str, reason: str) -> bool:
        """Charge task_id one attempt if ``conn`` holds it; True when charged.
        A failure for a task the connection does not hold is stale and
        changes nothing."""
        held = self.in_flight.get(task_id)
        if held is None or held[1] is not conn:
            return False
        self._charge(held[0], reason)
        self._check(task_id)
        return True

    def worker_lost(self, conn: object) -> list[str]:
        """Charge one attempt to every task the lost connection held;
        returns their ids in assignment order, which is also the order in
        which the requeued ones head ``pending``."""
        held = [task for task, c in self.in_flight.values() if c is conn]
        for task in reversed(held):  # appendleft order: earliest assigned first
            self._charge(task, "worker lost")
        self._check(*(task.task_id for task in held))
        return [task.task_id for task in held]


class _MasterCore:
    """Transport-agnostic event loop. Events are ("msg", conn, message) and
    ("closed", conn, None), the latter a connection's last event; conns
    expose send(msg), which never raises."""

    def __init__(self, tasks: Sequence[DockingTask], policy: DispatchPolicy,
                 transition_hook=None):
        if not tasks:
            raise DispatchError("task list is empty")
        self.state = BatchState(tasks, policy.max_attempts, transition_hook)
        self.policy = policy
        self.events: queue.SimpleQueue = queue.SimpleQueue()
        self.workers: dict[object, str] = {}  # conn -> worker_id
        self.per_worker: dict[str, int] = {}
        self.parked: deque[object] = deque()  # conns, one per REQUEST
        self._idle_since = time.monotonic()

    def _register(self, conn: object, worker_id: str) -> None:
        self.workers[conn] = worker_id
        self.per_worker.setdefault(worker_id, 0)

    def _serve_parked(self) -> None:
        while self.parked and self.state.pending:
            conn = self.parked.popleft()
            task = self.state.assign_next(conn)
            # A failed send ends the connection's reader, whose "closed"
            # event charges the task.
            conn.send(wire.Assign(task))

    def _handle_closed(self, conn: object) -> None:
        self.parked = deque(c for c in self.parked if c is not conn)
        charged = self.state.worker_lost(conn)
        log.info("worker %s lost; charged %d task(s)", self.workers.get(conn), len(charged))
        self.workers.pop(conn, None)
        if not self.workers:
            self._idle_since = time.monotonic()
        self._serve_parked()

    def run(self) -> BatchReport:
        t_start = time.monotonic()
        self._idle_since = t_start
        while not self.state.all_terminal():
            timeout = None
            if not self.workers and not self.state.in_flight:
                # No live workers: bounded wait for the first (or a
                # replacement) connection instead of hanging forever.
                waited = time.monotonic() - self._idle_since
                timeout = max(0.0, self.policy.startup_timeout - waited)
            try:
                kind, conn, msg = self.events.get(timeout=timeout)
            except queue.Empty:
                raise DispatchError(
                    f"no worker connected within {self.policy.startup_timeout} s"
                ) from None

            if kind == "closed":
                self._handle_closed(conn)
            elif isinstance(msg, wire.Request):
                if conn not in self.workers:
                    self._register(conn, msg.worker_id)
                self.parked.append(conn)
                self._serve_parked()
            elif isinstance(msg, wire.Result):
                if self.state.record_result(msg.task_id, msg.result):
                    worker_id = self.workers.get(conn, "unknown")
                    self.per_worker[worker_id] = self.per_worker.get(worker_id, 0) + 1
                else:
                    log.info("discarding duplicate/stale result for %s", msg.task_id)
            elif isinstance(msg, wire.TaskFailed):
                if self.state.task_failed(conn, msg.task_id, msg.error):
                    self._serve_parked()
                else:
                    log.info("discarding stale failure for %s", msg.task_id)
            else:
                log.warning("ignoring unexpected message %r", msg)

        for conn in self.workers:
            conn.send(wire.Shutdown())
        return BatchReport(
            task_order=self.state.task_order,
            completed=dict(self.state.completed),
            failed=dict(self.state.permanently_failed),
            errors={tid: self.state.last_error[tid] for tid in self.state.permanently_failed},
            per_worker=dict(self.per_worker),
            wall_time=time.monotonic() - t_start,
        )


def _reader(conn: wire.Channel, events: queue.SimpleQueue) -> None:
    try:
        while (msg := conn.receive()) is not None:
            events.put(("msg", conn, msg))
    finally:
        events.put(("closed", conn, None))


def master_run(
    tasks: Sequence[DockingTask],
    listen: tuple[str, int],
    policy: DispatchPolicy | None = None,
    transition_hook=None,
) -> BatchReport:
    """Serve a batch to TCP workers; returns when every task is terminal,
    once every connection is shut down and its reader has ended.

    Raises DispatchError when the endpoint cannot be bound or no worker
    connects within ``policy.startup_timeout``.
    """
    policy = policy or DispatchPolicy()
    core = _MasterCore(tasks, policy, transition_hook)
    try:
        server = socket.create_server(listen)
    except OSError as exc:
        raise DispatchError(f"cannot bind {listen[0]}:{listen[1]}: {exc}") from exc

    readers: list[tuple[wire.Channel, threading.Thread]] = []

    def acceptor() -> None:
        while True:
            try:
                sock, addr = server.accept()
            except OSError:  # the server socket was shut down
                break
            conn = wire.Channel(sock, f"{addr[0]}:{addr[1]}")
            reader = threading.Thread(target=_reader, args=(conn, core.events), daemon=True)
            readers.append((conn, reader))
            reader.start()

    accept_thread = threading.Thread(target=acceptor, daemon=True)
    accept_thread.start()
    try:
        report = core.run()
    finally:
        # shutdown wakes the blocked accept at once; close alone may not
        server.shutdown(socket.SHUT_RDWR)
        server.close()
        accept_thread.join(timeout=5)
        for conn, reader in readers:
            conn.shutdown()  # wakes the reader if blocked in recv; close does not
            reader.join(timeout=5)
            conn.sock.close()
    return report


class _LocalConn:
    """In-memory worker connection: the master sends into ``inbox``, the
    lane posts onto the master's event queue."""

    def __init__(self, events: queue.SimpleQueue):
        self.events = events
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()

    def send(self, msg) -> None:
        self.inbox.put(msg)

    def post(self, msg) -> bool:
        self.events.put(("msg", self, msg))
        return True


def local_pool_run(
    tasks: Sequence[DockingTask],
    workers: int,
    policy: DispatchPolicy | None = None,
    executor: Callable[[DockingTask], DockingResult] = execute_task,
    transition_hook=None,
) -> BatchReport:
    """master_run plus ``workers`` single-slot lanes (run_lane, as in
    worker_loop) over in-memory connections, all inside this process; the
    lanes share the cores (docking.thread_budget).

    Unlike master_run, an empty task list is accepted and yields an empty
    report. A task whose executor raises costs only itself one attempt;
    its lane keeps serving.
    """
    if workers < 1:
        raise DispatchError(f"workers must be >= 1, got {workers}")
    policy = policy or DispatchPolicy()
    if not tasks:
        return BatchReport(task_order=(), completed={}, failed={}, errors={}, per_worker={},
                           wall_time=0.0)

    core = _MasterCore(tasks, policy, transition_hook)
    conns = [_LocalConn(core.events) for _ in range(workers)]
    lanes = [
        threading.Thread(target=run_lane, daemon=True,
                         args=(conn.post, conn.inbox.get, executor, f"local-{i}", workers))
        for i, conn in enumerate(conns)
    ]
    for lane in lanes:
        lane.start()
    try:
        report = core.run()
    finally:
        for conn in conns:
            conn.send(wire.Shutdown())
    for lane in lanes:
        lane.join(timeout=10)
    return report

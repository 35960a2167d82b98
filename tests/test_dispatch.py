"""Dispatch: per-task failures over TCP and in-process, malformed frames on
either side of a connection, and BatchState bookkeeping under random
event sequences."""

import socket
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from crossdock.dispatch import (
    BatchState,
    DispatchPolicy,
    DockingTask,
    local_pool_run,
    master_run,
    wire,
    worker_loop,
)
from crossdock.docking import DockConfig
from crossdock.errors import NoAtomsError

from conftest import sample_result

STARTUP = 10.0  # master startup_timeout; every wait below is bounded by it
BAD = "r1__bad"
VALID = {"r1__l1", "r1__l2", "r1__l3"}
DEEP_FRAME = b"[" * 100000 + b"]" * 100000  # deeper than the JSON decoder recurses


def make_tasks(ids) -> list[DockingTask]:
    return [DockingTask(tid, "r1.pdb", f"{tid.split('__')[1]}.pdb", DockConfig()) for tid in ids]


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def in_thread(fn, *args, **kwargs):
    """Start fn in a daemon thread; the dict receives "value" or "error"."""
    out: dict = {}

    def run():
        try:
            out["value"] = fn(*args, **kwargs)
        except Exception as exc:  # handed to the test thread
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, out


def join(thread: threading.Thread, timeout: float = 2 * STARTUP) -> None:
    thread.join(timeout)
    assert not thread.is_alive()


def connect(port: int) -> socket.socket:
    deadline = time.monotonic() + STARTUP
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port))
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(len(payload).to_bytes(4, "big") + payload)


class FaultyExecutor:
    """Raises NoAtomsError for the bad task. Valid tasks wait until the bad
    one has been charged (seen through the transition hook), so the failure
    always lands while they are in flight."""

    def __init__(self):
        self.bad_charged = threading.Event()
        self.lock = threading.Lock()
        self.calls: Counter = Counter()

    def hook(self, state: BatchState) -> None:
        if state.failed_attempts.get(BAD):
            self.bad_charged.set()

    def __call__(self, task: DockingTask):
        with self.lock:
            self.calls[task.task_id] += 1
        if task.task_id == BAD:
            raise NoAtomsError("bad.pdb: structure has no atoms")
        if not self.bad_charged.wait(STARTUP):
            raise TimeoutError("the bad task was never charged")
        return sample_result(task.task_id)


def test_failing_task_costs_only_itself_over_tcp():
    executor = FaultyExecutor()
    port = free_port()
    policy = DispatchPolicy(max_attempts=2, startup_timeout=STARTUP)
    t0 = time.monotonic()
    master, m = in_thread(master_run, make_tasks(["r1__l1", "r1__l2", BAD, "r1__l3"]),
                          ("127.0.0.1", port), policy, executor.hook)
    worker, w = in_thread(worker_loop, ("127.0.0.1", port), slots=4, executor=executor,
                          worker_id="w1", backoff_initial=0.01, backoff_cap=0.05,
                          max_retries=500)
    join(master)
    elapsed = time.monotonic() - t0
    join(worker)

    assert "error" not in m and "error" not in w, (m, w)
    report = m["value"]
    assert set(report.completed) == VALID
    assert report.failed == {BAD: 2}
    assert report.errors[BAD].startswith("NoAtomsError")
    assert report.per_worker == {"w1": 3}
    assert w["value"] == 3
    assert executor.calls == Counter({BAD: 2, "r1__l1": 1, "r1__l2": 1, "r1__l3": 1})
    assert elapsed < STARTUP / 2


def test_local_pool_gives_the_tcp_outcome():
    executor = FaultyExecutor()
    policy = DispatchPolicy(max_attempts=2, startup_timeout=STARTUP)
    pool, out = in_thread(local_pool_run, make_tasks(["r1__l1", "r1__l2", BAD, "r1__l3"]),
                          4, policy, executor, executor.hook)
    join(pool)

    assert "error" not in out, out
    report = out["value"]
    assert set(report.completed) == VALID
    assert report.failed == {BAD: 2}
    assert report.errors[BAD].startswith("NoAtomsError")
    assert set(report.per_worker) == {"local-0", "local-1", "local-2", "local-3"}
    assert sum(report.per_worker.values()) == 3


def test_malformed_frame_from_a_worker_charges_its_connection():
    port = free_port()
    policy = DispatchPolicy(max_attempts=1, startup_timeout=STARTUP)
    master, m = in_thread(master_run, make_tasks(["r1__l1"]), ("127.0.0.1", port), policy)
    with connect(port) as sock:
        wire.send_message(sock, wire.Request("peer"))
        assert isinstance(wire.recv_message(sock), wire.Assign)
        send_frame(sock, DEEP_FRAME)
    join(master, STARTUP)

    assert "error" not in m, m
    assert m["value"].failed == {"r1__l1": 1}
    assert m["value"].errors == {"r1__l1": "worker lost"}


def test_malformed_frame_from_the_master_ends_the_worker():
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]
        worker, w = in_thread(worker_loop, ("127.0.0.1", port), slots=2,
                              executor=sample_result, worker_id="w1")
        conn, _ = server.accept()
        with conn:
            assert wire.recv_message(conn) == wire.Hello("w1", 2)
            send_frame(conn, DEEP_FRAME)
            join(worker, STARTUP)
    assert w == {"value": 0}


def test_stale_task_failure_is_discarded_and_charges_nothing():
    state = BatchState(make_tasks(["r1__l1"]), max_attempts=2)
    holder, other = object(), object()
    state.assign_next(holder, "w1")
    assert not state.task_failed(other, "r1__l1", "boom")
    assert not state.task_failed(holder, "r1__nope", "boom")
    assert state.failed_attempts == {} and set(state.in_flight) == {"r1__l1"}
    assert state.task_failed(holder, "r1__l1", "boom")
    assert [t.task_id for t in state.pending] == ["r1__l1"]
    assert not state.task_failed(holder, "r1__l1", "boom")  # no longer held
    assert state.failed_attempts == {"r1__l1": 1}


class BatchStateMachine(RuleBasedStateMachine):
    """Random assign/result/failure/loss sequences against a model of how
    many attempts each task has been charged."""

    CONNS = ("c0", "c1", "c2")

    @initialize(n_tasks=st.integers(1, 6), max_attempts=st.integers(1, 3))
    def start(self, n_tasks, max_attempts):
        self.ids = [f"r__l{i}" for i in range(n_tasks)]
        self.max_attempts = max_attempts
        self.conns = {name: object() for name in self.CONNS}
        self.state = BatchState(make_tasks(self.ids), max_attempts)
        self.charges: Counter = Counter()

    def snapshot(self):
        s = self.state
        return ([t.task_id for t in s.pending], dict(s.in_flight), dict(s.completed),
                dict(s.failed_attempts), dict(s.permanently_failed), dict(s.last_error))

    def holder(self, task_id):
        return self.state.in_flight[task_id][1]

    @precondition(lambda self: self.state.pending)
    @rule(conn=st.sampled_from(CONNS))
    def assign(self, conn):
        expected = self.state.pending[0].task_id
        task = self.state.assign_next(self.conns[conn], conn)
        assert task.task_id == expected and self.holder(expected) is self.conns[conn]

    @rule(data=st.data())
    def record_result(self, data):
        tid = data.draw(st.sampled_from(self.ids))
        was_in_flight = tid in self.state.in_flight
        assert self.state.record_result(tid, sample_result(tid)) == was_in_flight
        assert tid not in self.state.in_flight

    @precondition(lambda self: self.state.in_flight)
    @rule(data=st.data())
    def task_failed_by_holder(self, data):
        tid = data.draw(st.sampled_from(sorted(self.state.in_flight)))
        assert self.state.task_failed(self.holder(tid), tid, "boom")
        self.charges[tid] += 1

    @rule(data=st.data(), conn=st.sampled_from(CONNS))
    def task_failed_by_another(self, data, conn):
        tid = data.draw(st.sampled_from(self.ids))
        if tid in self.state.in_flight and self.holder(tid) is self.conns[conn]:
            return  # that is the holder's own failure, covered above
        before = self.snapshot()
        assert not self.state.task_failed(self.conns[conn], tid, "stale")
        assert self.snapshot() == before

    @rule(conn=st.sampled_from(CONNS))
    def worker_lost(self, conn):
        held = {tid for tid, entry in self.state.in_flight.items()
                if entry[1] is self.conns[conn]}
        assert set(self.state.worker_lost(self.conns[conn])) == held
        for tid in held:
            self.charges[tid] += 1
            assert self.state.last_error[tid] == "worker lost"

    @invariant()
    def states_partition_the_batch(self):
        s = self.state
        groups = [[t.task_id for t in s.pending], list(s.in_flight), list(s.completed),
                  list(s.permanently_failed)]
        assert sorted(tid for g in groups for tid in g) == sorted(self.ids)

    @invariant()
    def attempts_follow_the_charges(self):
        s = self.state
        assert s.failed_attempts == {tid: n for tid, n in self.charges.items() if n}
        assert all(n <= self.max_attempts for n in s.failed_attempts.values())
        assert s.permanently_failed == {tid: self.max_attempts for tid, n
                                        in s.failed_attempts.items() if n == self.max_attempts}


TestBatchStateMachine = BatchStateMachine.TestCase
TestBatchStateMachine.settings = settings(max_examples=150, stateful_step_count=40,
                                          deadline=None)


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_many_lanes_with_retried_tasks_under_fast_thread_switching(transport):
    """More lanes than cores and a 10 us switch interval: every task runs
    once, or twice when its first attempt raises, and is counted once."""
    ids = [f"r1__l{i}" for i in range(120)]
    flaky = set(ids[::7])
    lock = threading.Lock()
    calls: Counter = Counter()

    def executor(task):
        with lock:
            calls[task.task_id] += 1
            first = calls[task.task_id] == 1
        if first and task.task_id in flaky:
            raise RuntimeError("transient")
        return sample_result(task.task_id)

    policy = DispatchPolicy(max_attempts=2, startup_timeout=STARTUP)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        if transport == "local":
            master, m = in_thread(local_pool_run, make_tasks(ids), 8, policy, executor)
        else:
            port = free_port()
            master, m = in_thread(master_run, make_tasks(ids), ("127.0.0.1", port), policy)
            worker, w = in_thread(worker_loop, ("127.0.0.1", port), slots=8, executor=executor,
                                  backoff_initial=0.01, backoff_cap=0.05, max_retries=500)
            join(worker)
            assert w == {"value": len(ids)}
        join(master)
    finally:
        sys.setswitchinterval(interval)

    assert "error" not in m, m
    report = m["value"]
    assert set(report.completed) == set(ids) and report.failed == {} and report.errors == {}
    assert calls == Counter({tid: 2 if tid in flaky else 1 for tid in ids})
    assert sum(report.per_worker.values()) == len(ids)

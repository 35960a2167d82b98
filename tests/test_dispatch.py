"""Dispatch: per-task failures over TCP and in-process, malformed frames on
either side of a connection, peers of another protocol version, the
messages each task costs, BatchState bookkeeping under random event
sequences, the lanes' shared thread budget, the report's JSON, and no
thread left running once a test ends."""

import dataclasses
import itertools
import json
import math
import os
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
    BatchReport,
    BatchState,
    DispatchPolicy,
    DockingTask,
    local_pool_run,
    master_run,
    wire,
    worker_loop,
)
from crossdock.dispatch import master as dispatch_master
from crossdock.dispatch import worker as dispatch_worker
from crossdock.dispatch.worker import run_lane
from crossdock.docking import DockConfig, Pose
from crossdock.errors import DispatchError, NoAtomsError

from conftest import report_dict, sample_result

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


def threads_alive_after(before: set, within: float = 5.0) -> list[str]:
    """Names of the threads started since ``before`` that are still alive
    ``within`` seconds from now."""
    deadline = time.monotonic() + within
    started = set(threading.enumerate()) - before
    for thread in started:
        thread.join(max(0.0, deadline - time.monotonic()))
    return sorted(t.name for t in started if t.is_alive())


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    before = set(threading.enumerate())
    yield
    assert threads_alive_after(before) == []


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


def test_a_tcp_batch_turns_nagle_off_on_both_ends(monkeypatch):
    nodelay = []
    channel_init = wire.Channel.__init__

    def spy(self, sock, peer):
        channel_init(self, sock, peer)
        nodelay.append(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(wire.Channel, "__init__", spy)
    ids = ["r1__l1", "r1__l2", "r1__l3"]
    port = free_port()
    policy = DispatchPolicy(max_attempts=1, startup_timeout=STARTUP)
    master, m = in_thread(master_run, make_tasks(ids), ("127.0.0.1", port), policy)
    worker, w = in_thread(worker_loop, ("127.0.0.1", port), slots=2,
                          executor=lambda task: sample_result(task.task_id), worker_id="w1",
                          backoff_initial=0.01, backoff_cap=0.05, max_retries=500)
    join(master)
    join(worker)

    assert "error" not in m and w == {"value": 3}, (m, w)
    assert m["value"].completed == {tid: sample_result(tid) for tid in ids}
    assert len(nodelay) == 2 and all(nodelay)  # the master's and the worker's end


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
        peer = wire.Channel(sock, "master")
        assert peer.send(wire.Request("peer"))
        assert isinstance(peer.receive(), wire.Assign)
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
            assert wire.Channel(conn, "w1").receive() == wire.Request("w1")
            send_frame(conn, DEEP_FRAME)
            join(worker, STARTUP)
    assert w == {"value": 0}


def assert_dropped_then_served(*payloads: bytes) -> None:
    """A master with one task reads ``payloads`` from a scripted peer and
    ends that connection without sending it a frame; a current worker then
    completes the task."""
    port = free_port()
    policy = DispatchPolicy(max_attempts=1, startup_timeout=STARTUP)
    master, m = in_thread(master_run, make_tasks(["r1__l1"]), ("127.0.0.1", port), policy)
    with connect(port) as peer:
        for payload in payloads:
            send_frame(peer, payload)
        peer.settimeout(STARTUP)
        assert peer.recv(1) == b""
    worker, w = in_thread(worker_loop, ("127.0.0.1", port), slots=1,
                          executor=lambda task: sample_result(task.task_id), worker_id="new")
    join(worker)
    join(master)
    assert w == {"value": 1}
    assert "error" not in m, m
    assert m["value"].per_worker == {"new": 1} and m["value"].failed == {}


def test_a_hello_from_an_older_worker_drops_its_connection():
    """HELLO is no longer a message type: the master ends that connection at
    once and serves the batch to a current worker."""
    assert_dropped_then_served(
        b'{"v":%d,"type":"HELLO","worker_id":"old","slots":1}' % wire.PROTOCOL_VERSION)


def test_a_version_2_worker_is_dropped_at_its_first_request():
    """A version 2 lane follows each RESULT with a REQUEST, which this
    master would take as a second request for a task."""
    assert_dropped_then_served(b'{"type":"REQUEST","worker_id":"old","v":2}')


@pytest.mark.parametrize("reply", [wire.Result("r1__l1", sample_result("r1__l1")),
                                   wire.TaskFailed("r1__l1", "boom")],
                         ids=["result", "task-failed"])
def test_a_reply_from_a_connection_that_never_sent_a_request_gets_no_assign(reply):
    """The reply, for a task nobody holds, is discarded and its connection
    is not parked: a malformed frame ends the connection before any ASSIGN
    reaches it."""
    assert_dropped_then_served(wire.encode_message(reply)[4:], DEEP_FRAME)


def test_a_worker_whose_master_answers_in_version_2_returns_0():
    """A current worker drops a master that answers its REQUESTs in version
    2 instead of waiting for an ASSIGN it can read."""
    assign = wire.encode_message(wire.Assign(make_tasks(["r1__l1"])[0]))
    suffix = b',"v":%d}' % wire.PROTOCOL_VERSION
    assert assign.endswith(suffix)
    calls = []
    with socket.create_server(("127.0.0.1", 0)) as server:
        worker, w = in_thread(worker_loop, server.getsockname(), slots=2,
                              executor=calls.append, worker_id="w1")
        conn, _ = server.accept()
        with conn:
            master = wire.Channel(conn, "w1")
            assert [master.receive() for _ in range(2)] == [wire.Request("w1")] * 2
            conn.sendall(assign[:-len(suffix)] + b',"v":2}')
            join(worker, STARTUP)
    assert w == {"value": 0} and calls == []


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_each_lane_sends_one_request_and_then_one_reply_per_assign(monkeypatch, transport):
    """Messages by type over two lanes and four tasks, one of which fails
    once and is retried: one REQUEST per lane, one ASSIGN per attempt, one
    RESULT or TASK_FAILED per ASSIGN and one SHUTDOWN read per connection.
    Over TCP these are exactly the frames encoded, and the outcome is the
    one of the protocol that sent a REQUEST before every task."""
    ids = ["r1__l1", "r1__l2", BAD, "r1__l3"]
    lock = threading.Lock()
    sent, received, frames, calls = Counter(), Counter(), Counter(), Counter()

    def count(counter: Counter, msg) -> None:
        with lock:
            counter[type(msg).__name__] += 1

    def counting_lane(send, recv, *args):
        def counted_send(msg):
            count(sent, msg)
            return send(msg)

        def counted_recv():
            msg = recv()
            if msg is not None:
                count(received, msg)
            return msg

        return run_lane(counted_send, counted_recv, *args)

    encode = wire.encode_message

    def counted_encode(msg):
        count(frames, msg)
        return encode(msg)

    def executor(task):
        with lock:
            calls[task.task_id] += 1
            first = calls[task.task_id] == 1
        if first and task.task_id == BAD:
            raise NoAtomsError("bad.pdb: structure has no atoms")
        return sample_result(task.task_id)

    monkeypatch.setattr(dispatch_master, "run_lane", counting_lane)
    monkeypatch.setattr(dispatch_worker, "run_lane", counting_lane)
    monkeypatch.setattr(wire, "encode_message", counted_encode)
    policy = DispatchPolicy(max_attempts=2, startup_timeout=STARTUP)
    if transport == "local":
        master, m = in_thread(local_pool_run, make_tasks(ids), 2, policy, executor)
    else:
        port = free_port()
        master, m = in_thread(master_run, make_tasks(ids), ("127.0.0.1", port), policy)
        worker, w = in_thread(worker_loop, ("127.0.0.1", port), slots=2, executor=executor,
                              worker_id="w1", backoff_initial=0.01, backoff_cap=0.05,
                              max_retries=500)
        join(worker)
        assert w == {"value": 4}, w
    join(master)

    assert "error" not in m, m
    report = m["value"]
    assert report.completed == {tid: sample_result(tid) for tid in ids}
    assert report.failed == {} and report.errors == {}
    assert calls == Counter({BAD: 2, "r1__l1": 1, "r1__l2": 1, "r1__l3": 1})
    assert sent == Counter(Request=2, Result=4, TaskFailed=1)
    if transport == "local":
        assert set(report.per_worker) == {"local-0", "local-1"}
        assert sum(report.per_worker.values()) == 4
        assert received == Counter(Assign=5, Shutdown=2)
        assert frames == Counter()
    else:
        assert report.per_worker == {"w1": 4}
        assert received == Counter(Assign=5, Shutdown=1)
        assert frames == sent + received


def test_a_result_from_a_connection_not_holding_its_task_is_discarded():
    """While w1 holds r1__l1, a bare connection sends a result for it
    (another pair's): it is discarded, and w1's own result is recorded and
    credited to w1 alone."""
    port = free_port()
    policy = DispatchPolicy(max_attempts=1, startup_timeout=STARTUP)
    master, m = in_thread(master_run, make_tasks(["r1__l1"]), ("127.0.0.1", port), policy)
    with connect(port) as sock:
        w1 = wire.Channel(sock, "master")
        assert w1.send(wire.Request("w1"))
        assert w1.receive() == wire.Assign(make_tasks(["r1__l1"])[0])
        with connect(port) as bare:
            send_frame(bare, wire.encode_message(
                wire.Result("r1__l1", sample_result("r9__l9")))[4:])
            send_frame(bare, DEEP_FRAME)  # dropped once its result is applied
            bare.settimeout(STARTUP)
            assert bare.recv(1) == b""
        assert w1.send(wire.Result("r1__l1", sample_result("r1__l1")))
        assert isinstance(w1.receive(), wire.Shutdown)
        join(master, STARTUP)
    assert "error" not in m, m
    assert m["value"].completed == {"r1__l1": sample_result("r1__l1")}
    assert m["value"].per_worker == {"w1": 1}


def test_stale_task_failure_is_discarded_and_charges_nothing():
    state = BatchState(make_tasks(["r1__l1"]), max_attempts=2)
    holder, other = object(), object()
    state.assign_next(holder)
    assert not state.task_failed(other, "r1__l1", "boom")
    assert not state.task_failed(holder, "r1__nope", "boom")
    assert state.failed_attempts == {} and set(state.in_flight) == {"r1__l1"}
    assert state.task_failed(holder, "r1__l1", "boom")
    assert [t.task_id for t in state.pending] == ["r1__l1"]
    assert not state.task_failed(holder, "r1__l1", "boom")  # no longer held
    assert state.failed_attempts == {"r1__l1": 1}


def test_every_transition_checks_that_the_groups_partition_the_batch():
    """A transition raises on a broken conservation or on an id it moved
    into two groups; the one that ends the batch checks every id."""
    ids = ["r1__l1", "r1__l2", "r1__l3"]
    holder = object()

    state = BatchState(make_tasks(ids), max_attempts=1)
    state.pending.append(state.pending[0])  # a second copy of r1__l1
    with pytest.raises(DispatchError, match="conservation violated"):
        state.assign_next(holder)

    # r1__l3 dropped and r1__l1 also failed: the group sizes still sum to 3
    state = BatchState(make_tasks(ids), max_attempts=1)
    state.assign_next(holder)
    state.pending.pop()
    state.permanently_failed["r1__l1"] = 1
    with pytest.raises(DispatchError, match="task states overlap: .*r1__l1"):
        state.record_result(holder, "r1__l1", sample_result("r1__l1"))

    # r1__l2 dropped and r1__l1 both completed and failed; only r1__l3 moves
    state = BatchState(make_tasks(ids), max_attempts=1)
    for _ in ids:
        state.assign_next(holder)
    del state.in_flight["r1__l1"], state.in_flight["r1__l2"]
    state.completed["r1__l1"] = sample_result("r1__l1")
    state.permanently_failed["r1__l1"] = 1
    with pytest.raises(DispatchError, match="task states overlap: .*r1__l1"):
        state.record_result(holder, "r1__l3", sample_result("r1__l3"))


def test_a_requeued_task_sits_in_no_other_group():
    """A charge that requeues an id also in completed raises, though every
    id sits in at most one of in_flight, completed and failed."""
    ids = ["r__a", "r__b", "r__c"]
    holder = object()
    state = BatchState(make_tasks(ids), max_attempts=3)
    state.assign_next(holder)
    state.pending.pop()  # r__c dropped: the group sizes still sum to 3
    state.completed["r__a"] = sample_result("r__a")
    with pytest.raises(DispatchError, match="task states overlap: r__a is requeued"):
        state.task_failed(holder, "r__a", "boom")


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
        self.assignments = itertools.count()
        self.assigned_at: dict[str, int] = {}  # task id -> number of its last assignment

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
        task = self.state.assign_next(self.conns[conn])
        assert task.task_id == expected and self.holder(expected) is self.conns[conn]
        self.assigned_at[expected] = next(self.assignments)

    @precondition(lambda self: self.state.in_flight)
    @rule(data=st.data())
    def record_result_by_holder(self, data):
        tid = data.draw(st.sampled_from(sorted(self.state.in_flight)))
        assert self.state.record_result(self.holder(tid), tid, sample_result(tid))
        assert tid not in self.state.in_flight and tid in self.state.completed

    @rule(data=st.data(), conn=st.sampled_from(CONNS))
    def record_result_by_another(self, data, conn):
        tid = data.draw(st.sampled_from(self.ids))
        if tid in self.state.in_flight and self.holder(tid) is self.conns[conn]:
            return  # that is the holder's own result, covered above
        before = self.snapshot()
        assert not self.state.record_result(self.conns[conn], tid, sample_result(tid))
        assert self.snapshot() == before

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
        """Every task the connection held is charged; the ones requeued head
        pending, earliest assigned first."""
        held = sorted((tid for tid, entry in self.state.in_flight.items()
                       if entry[1] is self.conns[conn]), key=self.assigned_at.__getitem__)
        assert self.state.worker_lost(self.conns[conn]) == held
        for tid in held:
            self.charges[tid] += 1
            assert self.state.last_error[tid] == "worker lost"
        requeued = [tid for tid in held if tid not in self.state.permanently_failed]
        assert [t.task_id for t in self.state.pending][:len(requeued)] == requeued

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
    once, or twice when its first attempt raises, and is counted once, and
    no two state transitions overlap."""
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

    transition = threading.Lock()
    transitions = []

    def hook(state):
        """Transitions run under the master's lock, so never two at once."""
        assert transition.acquire(blocking=False), "two transitions overlap"
        try:
            time.sleep(0)  # yields the GIL: another lane runs while this one holds it
            transitions.append(len(state.completed))
        finally:
            transition.release()

    policy = DispatchPolicy(max_attempts=2, startup_timeout=STARTUP)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        if transport == "local":
            master, m = in_thread(local_pool_run, make_tasks(ids), 8, policy, executor, hook)
        else:
            port = free_port()
            master, m = in_thread(master_run, make_tasks(ids), ("127.0.0.1", port), policy,
                                  hook)
            # two workers of 4 lanes: two reader threads apply messages
            workers = [in_thread(worker_loop, ("127.0.0.1", port), slots=4, executor=executor,
                                 worker_id=f"w{i}", backoff_initial=0.01, backoff_cap=0.05,
                                 max_retries=500) for i in range(2)]
            for worker, _ in workers:
                join(worker)
            assert sum(w["value"] for _, w in workers) == len(ids), workers
        join(master)
    finally:
        sys.setswitchinterval(interval)

    assert "error" not in m, m
    report = m["value"]
    assert set(report.completed) == set(ids) and report.failed == {} and report.errors == {}
    assert calls == Counter({tid: 2 if tid in flaky else 1 for tid in ids})
    assert sum(report.per_worker.values()) == len(ids)
    assert transitions[-1] == len(ids)
    # one per assignment, result and failure, plus the start
    assert len(transitions) == 1 + 2 * sum(calls.values())


class RaisesOnCall:
    """A transition hook that raises on its ``n``-th call."""

    def __init__(self, n: int):
        self.n = n
        self.calls = 0

    def __call__(self, state: BatchState) -> None:
        self.calls += 1
        if self.calls == self.n:
            raise RuntimeError(f"hook call {self.n}")


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_an_error_in_the_bookkeeping_reaches_the_caller(transport):
    """The hook runs in a lane or reader thread; its exception is raised by
    local_pool_run or master_run in the caller's thread, and every lane
    ends."""
    ids = [f"r1__l{i}" for i in range(20)]
    policy = DispatchPolicy(max_attempts=1, startup_timeout=STARTUP)
    hook = RaisesOnCall(5)

    def executor(task):
        return sample_result(task.task_id)

    if transport == "local":
        master, m = in_thread(local_pool_run, make_tasks(ids), 4, policy, executor, hook)
    else:
        port = free_port()
        master, m = in_thread(master_run, make_tasks(ids), ("127.0.0.1", port), policy, hook)
        worker, w = in_thread(worker_loop, ("127.0.0.1", port), slots=4, executor=executor,
                              backoff_initial=0.01, backoff_cap=0.05, max_retries=500)
        join(worker, STARTUP)
        assert "error" not in w, w
    join(master, STARTUP)
    assert isinstance(m.get("error"), RuntimeError), m
    assert str(m["error"]) == "hook call 5"
    assert hook.calls == 5


def count_local_sends(monkeypatch) -> Counter:
    """Messages local_pool_run puts in its lanes' inboxes, by type."""
    sent: Counter = Counter()
    lock = threading.Lock()
    send = dispatch_master._LocalConn.send

    def spy(self, msg):
        with lock:
            sent[type(msg).__name__] += 1
        send(self, msg)

    monkeypatch.setattr(dispatch_master._LocalConn, "send", spy)
    return sent


def test_local_pool_run_sends_each_lane_one_shutdown(monkeypatch):
    sent = count_local_sends(monkeypatch)
    ids = [f"r1__l{i}" for i in range(10)]
    policy = DispatchPolicy(startup_timeout=STARTUP)
    report = local_pool_run(make_tasks(ids), 2, policy, lambda task: sample_result(task.task_id))
    assert set(report.completed) == set(ids)
    assert sent == Counter(Assign=10, Shutdown=2)


def test_a_raising_transition_hook_still_ends_and_joins_every_lane(monkeypatch):
    """local_pool_run raises the hook's error only once every lane has read
    its one SHUTDOWN and ended."""
    sent = count_local_sends(monkeypatch)
    before = set(threading.enumerate())
    policy = DispatchPolicy(startup_timeout=STARTUP)
    with pytest.raises(RuntimeError, match="^hook call 5$"):
        local_pool_run(make_tasks([f"r1__l{i}" for i in range(10)]), 2, policy,
                       lambda task: sample_result(task.task_id), RaisesOnCall(5))
    assert [t.name for t in set(threading.enumerate()) - before if t.is_alive()] == []
    assert sent["Shutdown"] == 2


def test_master_run_ends_its_readers_while_a_worker_stays_connected():
    """A peer that stays connected after SHUTDOWN leaves no thread of
    master_run blocked in recv."""
    before = set(threading.enumerate())
    port = free_port()
    policy = DispatchPolicy(max_attempts=1, startup_timeout=STARTUP)
    master, m = in_thread(master_run, make_tasks(["r1__l1"]), ("127.0.0.1", port), policy)
    with connect(port) as sock:
        peer = wire.Channel(sock, "master")
        assert peer.send(wire.Request("peer"))
        assign = peer.receive()
        assert peer.send(wire.Result(assign.task.task_id, sample_result(assign.task.task_id)))
        assert isinstance(peer.receive(), wire.Shutdown)
        join(master, STARTUP)
        assert threads_alive_after(before) == []
    assert "error" not in m, m
    assert set(m["value"].completed) == {"r1__l1"}


def test_worker_loop_returns_0_when_the_master_closes_at_once():
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]
        worker, w = in_thread(worker_loop, ("127.0.0.1", port), slots=2,
                              executor=sample_result, worker_id="w1")
        conn, _ = server.accept()
        conn.close()
        join(worker, STARTUP)
    assert w == {"value": 0}


def test_worker_lanes_read_the_channel_and_one_shutdown_ends_them_all():
    """A worker runs one thread per slot and no reader: its lanes take
    turns on the channel. The lane that reads the one SHUTDOWN ends the
    connection for the others, though the master keeps it open."""
    slots = 4
    with socket.create_server(("127.0.0.1", 0)) as server:
        before = threading.active_count()
        worker, w = in_thread(worker_loop, server.getsockname(), slots=slots,
                              executor=sample_result, worker_id="w1")
        conn, _ = server.accept()
        with conn:
            master = wire.Channel(conn, "w1")
            assert [master.receive() for _ in range(slots)] == [wire.Request("w1")] * slots
            assert threading.active_count() == before + slots + 1  # + in_thread's runner
            assert master.send(wire.Shutdown())
            join(worker, STARTUP)
    assert w == {"value": 0}


def timed_master_run(port: int, policy: DispatchPolicy):
    report = master_run(make_tasks(["r1__l1"]), ("127.0.0.1", port), policy)
    return report, time.perf_counter()


def test_master_run_returns_as_soon_as_the_batch_ends():
    """master_run returns once its last task is terminal, not when a polling
    acceptor next wakes up (0.25 s steps before the acceptor blocked)."""
    policy = DispatchPolicy(max_attempts=1, startup_timeout=STARTUP)
    delays = []
    for _ in range(10):
        port = free_port()
        master, m = in_thread(timed_master_run, port, policy)
        with connect(port) as sock:
            peer = wire.Channel(sock, "master")
            assert peer.send(wire.Request("peer"))
            assign = peer.receive()
            assert peer.send(wire.Result(assign.task.task_id,
                                         sample_result(assign.task.task_id)))
            sent = time.perf_counter()
            assert isinstance(peer.receive(), wire.Shutdown)
            join(master, STARTUP)
        assert "error" not in m, m
        report, returned = m["value"]
        assert set(report.completed) == {"r1__l1"}
        delays.append(returned - sent)
    assert sum(delays) / len(delays) < 0.05, delays


@pytest.mark.parametrize("run", [lambda: master_run([], ("127.0.0.1", 0)),
                                 lambda: local_pool_run([], 2)], ids=["tcp", "local"])
def test_an_empty_batch_is_a_dispatch_error(run):
    with pytest.raises(DispatchError, match="^task list is empty$"):
        run()


def test_master_run_raises_when_no_worker_connects_in_time():
    policy = DispatchPolicy(startup_timeout=0.2)
    t0 = time.monotonic()
    with pytest.raises(DispatchError, match="no worker connected within 0.2 s"):
        master_run(make_tasks(["r1__l1"]), ("127.0.0.1", free_port()), policy)
    assert time.monotonic() - t0 < STARTUP


@pytest.mark.parametrize("cpus, lanes", [(8, 3), (8, 1), (2, 4)])
@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_lanes_share_the_cores(monkeypatch, transport, cpus, lanes):
    """A threads=0 task in one of ``lanes`` lanes docks on cores // lanes
    threads, at least 1; an explicit count and a call outside a lane are
    left alone."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    seen: Counter = Counter()
    lock = threading.Lock()

    def executor(task):
        with lock:
            seen[task.config.resolved_threads()] += 1
        return sample_result(task.task_id)

    ids = [f"r1__l{i}" for i in range(12)]
    tasks = make_tasks(ids[:-1]) + [
        DockingTask(ids[-1], "r1.pdb", "l.pdb", DockConfig(threads=5))]
    policy = DispatchPolicy(startup_timeout=STARTUP)
    if transport == "local":
        master, m = in_thread(local_pool_run, tasks, lanes, policy, executor)
    else:
        port = free_port()
        master, m = in_thread(master_run, tasks, ("127.0.0.1", port), policy)
        worker, w = in_thread(worker_loop, ("127.0.0.1", port), slots=lanes, executor=executor,
                              backoff_initial=0.01, backoff_cap=0.05, max_retries=500)
        join(worker)
    join(master)
    assert "error" not in m, m
    assert seen == Counter({max(1, cpus // lanes): len(ids) - 1, 5: 1})
    assert DockConfig().resolved_threads() == cpus


def test_report_json_parses_back_to_its_dict():
    executor = FaultyExecutor()
    executor.bad_charged.set()
    policy = DispatchPolicy(max_attempts=1, startup_timeout=STARTUP)
    report = local_pool_run(make_tasks(["r1__l1", BAD, "r1__l2"]), 2, policy, executor)
    assert report.failed == {BAD: 1} and len(report.completed) == 2
    text = report.to_json()
    assert text == json.dumps(report_dict(report), sort_keys=True)
    assert json.loads(text) == report_dict(report)
    assert "\n" not in text


def test_report_json_is_the_json_of_its_dict():
    """Byte for byte, with scores json spells apart from float repr, a
    result without poses, escaped ids and an empty report."""
    odd = (Pose(3, 1, 2, 0, math.nan), Pose(0, 7, 7, 7, math.inf), Pose(1, 0, 0, 0, -math.inf),
           Pose(2, 5, 6, 7, -0.0), Pose(4, 1, 1, 1, 1e-300), Pose(5, 2, 2, 2, 123456789.125))
    completed = {
        "r1__l1": sample_result("r1__l1"),
        'r1__"\u00e9': dataclasses.replace(sample_result('r1__"\u00e9'), top_poses=odd),
        "r1__l3": dataclasses.replace(sample_result("r1__l3"), top_poses=()),
    }
    report = BatchReport(task_order=("r1__l3", BAD, *completed), completed=completed,
                         failed={BAD: 3}, errors={BAD: "NoAtomsError: no atoms"},
                         per_worker={"w-2": 1, "w-1": 2}, wall_time=1.25)
    empty = BatchReport(task_order=(), completed={}, failed={}, errors={}, per_worker={},
                        wall_time=0.0)
    for r in (report, empty):
        assert r.to_json() == json.dumps(report_dict(r), sort_keys=True)

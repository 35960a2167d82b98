"""In-memory spans around the benchmark's calls into crossdock.

A ``Tracer`` replaces a function at the module attribute where the program
looks it up with a wrapper that records one span per call: id, parent id,
name, start, end, thread (the OS thread id, which unlike ``get_ident`` is not
reused as soon as a thread ends), a small ``info`` value taken from the
arguments or the result, and whether the call returned. Parents come from a per-thread
stack; ``propagate_pool`` carries the submitting thread's open span into the
threads of a ``ThreadPoolExecutor``, so the rotation scan that ``dock_pair``
fans out keeps ``dock_pair`` as its parent. Spans stay in a list until
``dump`` writes them out at the end of a run; ``restore`` puts every
original function back.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    info: object
    ok: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder shared by every thread of one process. Threads only
    append to ``spans`` and draw ids from an ``itertools.count``; both are
    single calls into C that the interpreter lock keeps atomic."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``info(args, kwargs, result)``
        runs after the call (``result`` is None when it raised)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                detail = info(args, kwargs, result) if info else None
                self.spans.append(
                    Span(sid, parent, name, start, end, threading.get_native_id(), detail, ok)
                )

        return traced

    def patch(self, module: object, attr: str, name: str, info: Callable | None = None,
              adapt: Callable | None = None) -> None:
        """Replace ``module.attr`` with a traced wrapper; ``adapt(original)``
        may first bind extra arguments."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, adapt(original) if adapt else original, info))

    def propagate_pool(self, module: object) -> None:
        """Make ``module.ThreadPoolExecutor`` run each submitted call under
        the span that was open in the submitting thread."""
        tracer = self

        class ContextPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._run_under, tracer.current(), fn, *args, **kwargs)

        self._patched.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = ContextPool

    def _run_under(self, parent: int | None, fn: Callable, *args, **kwargs):
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def load_spans(path) -> list[Span]:
    """Spans written by ``Tracer.dump`` in another process."""
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh]


def union_seconds(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile (1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[pct - 1]


def lane_gaps(spans: list[Span]) -> list[float]:
    """Per thread, the time from the end of one span to the start of the next."""
    by_thread: dict[int, list[Span]] = {}
    for span in spans:
        by_thread.setdefault(span.thread, []).append(span)
    gaps = []
    for lane in by_thread.values():
        lane.sort(key=lambda s: s.start)
        gaps.extend(b.start - a.end for a, b in zip(lane, lane[1:]))
    return gaps

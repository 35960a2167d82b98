"""One crossdock benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/workload.py setup      WORKLOAD WORK SEED
    python3 perfbench/workload.py measure    WORKLOAD WORK SEED SECONDS TRACE
    python3 perfbench/workload.py tcp-worker WORK SEED PORT SLOTS TRACE TAG

``setup`` times one set-up (import crossdock, load the inputs and, for
dispatch, bind and connect over loopback) and prints the seconds. ``measure``
sets up, repeats the workload's unit of work while its time lasts, checks
every output after each unit and writes ``result.json`` into WORK. With TRACE
1 it runs untraced units for the first half of its time and traced units for
the second, then reduces the spans to per-layer metrics. ``tcp-worker`` is
the dispatch workload's ``worker_loop`` child.

Every workload is a closed loop: a lane asks for its next task only after the
previous one has finished, and all load comes from this process.
"""

from __future__ import annotations

import time

# Set-up is timed from here, before this process imports anything else, so
# it includes every module that importing crossdock pulls in.
_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json
import math
import os
import resource
import socket
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

import inputs
from spans import Span, Tracer, lane_gaps, load_spans, percentile, union_seconds

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
NPROC = os.cpu_count() or 1
STEP = 60.0  # 84 rotations, so that a run repeats every call several times
DIGESTS = BENCH / "digests.json"


def _import_crossdock():
    """Import crossdock from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import crossdock

    if not Path(crossdock.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"crossdock imported from {crossdock.__file__}, not {SRC}")


# --- tracing hooks -------------------------------------------------------


def _threads_now() -> int:
    # One entry per thread, the count /proc/self/status reports as Threads:,
    # at a sixth of the cost of parsing that file.
    return len(os.listdir("/proc/self/task"))


def _role(args, kwargs, _result):
    return kwargs.get("role", args[2] if len(args) > 2 else None)


def _edge(args, _kwargs, _result):
    return args[0].shape[0]


def _atoms(_args, _kwargs, result):
    return len(result.atoms) if result is not None else 0


def _threads(args, kwargs, _result):
    from crossdock.docking import DockConfig

    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    return (config or DockConfig()).resolved_threads()


def _sent(args, _kwargs, result):
    return [type(args[0]).__name__, len(result) if result is not None else 0]


def _received(args, _kwargs, result):
    return [type(result).__name__, len(args[0])]


def _executed(args, _kwargs, _result):
    return [args[0].task_id, _threads_now()]


def install(tracer: Tracer) -> None:
    """Wrap the functions the program looks up at call time."""
    import numpy
    from crossdock import docking
    from crossdock.dispatch import tasks, wire

    for attr in ("rotate_structure", "generate_rotations", "choose_grid_size"):
        tracer.patch(docking, attr, attr)
    tracer.patch(docking, "assign_grid", "assign_grid", _role)
    tracer.propagate_pool(docking)
    tracer.patch(numpy.fft, "fftn", "fft", _edge)
    tracer.patch(numpy.fft, "ifftn", "fft", _edge)
    tracer.patch(tasks, "load_structure", "load_structure", _atoms)
    tracer.patch(tasks, "dock_pair", "dock_pair", _threads)
    tracer.patch(wire, "encode_message", "encode", _sent)
    tracer.patch(wire, "decode_message", "decode", _received)


# --- per-layer reductions --------------------------------------------------


def _total(spans) -> float:
    return sum(s.seconds for s in spans)


def _busy_frac(spans: list[Span], roots: list[Span]) -> float:
    """Children's busy time, unioned per thread and summed over threads,
    over (threads x wall) of their dock_pair roots."""
    busy = 0.0
    for root in roots:
        per_thread = defaultdict(list)
        for s in spans:
            if s.parent == root.id:
                per_thread[s.thread].append((s.start, s.end))
        busy += sum(union_seconds(iv) for iv in per_thread.values())
    return busy / sum(r.info * r.seconds for r in roots)


def docking_layers(spans: list[Span], roots: list[Span]) -> dict[str, float]:
    """grid and docking metrics of the calls made under the dock_pair roots."""
    ids = {r.id for r in roots}
    kids = [s for s in spans if s.parent in ids]
    named = defaultdict(list)
    for s in kids:
        named[s.name].append(s)
    voxelize = named["assign_grid"]
    by_role = {role: [s for s in voxelize if s.info == role] for role in ("ligand", "receptor")}
    ffts = named["fft"]
    sizes = [s.info**3 for s in ffts]
    self_s = 0.0
    for root in roots:
        covered = [(s.start, s.end) for s in kids if s.parent == root.id]
        self_s += root.seconds - union_seconds(covered)
    return {
        "grid.choose_s": _total(named["choose_grid_size"]),
        "grid.voxelize_s": _total(voxelize),
        "grid.voxelize_calls": len(voxelize),
        "grid.voxelize_ms.ligand": 1e3 * _total(by_role["ligand"]) / len(by_role["ligand"]),
        "grid.voxelize_ms.receptor": 1e3 * _total(by_role["receptor"]) / len(by_role["receptor"]),
        "docking.rotation_set_s": _total(named["generate_rotations"]),
        "docking.rotation_set_calls": len(named["generate_rotations"]),
        "docking.rotate_s": _total(named["rotate_structure"]),
        "docking.fft_s": _total(ffts),
        "docking.fft_calls": len(ffts),
        # Computed, not counted: 5 N log2 N flops and one complex128 read
        # plus one write of N points per 3-D transform of N = n^3 points.
        "docking.fft_gflop": sum(5 * size * math.log2(size) for size in sizes) / 1e9,
        "docking.fft_mb": sum(2 * 16 * size for size in sizes) / 1e6,
        "docking.self_s": self_s,
        "docking.thread_busy_frac": _busy_frac(spans, roots),
    }


def dispatch_layers(executions: list[Span], wall: float, lanes: int, prefix: str) -> dict:
    gaps_us = [1e6 * g for g in lane_gaps(executions)]
    return {
        f"{prefix}gap_us.p50": statistics.median(gaps_us),
        f"{prefix}gap_us.p99": percentile(gaps_us, 99),
        f"{prefix}lane_idle_frac": 1.0 - _total(executions) / (lanes * wall),
        f"{prefix}threads_max": max(s.info[1] for s in executions),
    }


def _median_dicts(dicts: list[dict]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# --- shared helpers --------------------------------------------------------


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pose_lines(poses) -> list[str]:
    # Scores rounded to 1e-6 so that last-bit noise in the transform does not
    # change the digest unless it changes the ranking itself.
    return [f"{p.rotation_index} {p.tx} {p.ty} {p.tz} {round(p.score, 6)!r}" for p in poses]


def _check_digest(workload: str, digest: str, seed: int, problems: list[str]) -> None:
    if seed != inputs.DEFAULT_SEED:
        return
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    if digest != stored:
        problems.append(f"top-K digest {digest} != stored {stored}")


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def canned_result(seed: int):
    """The dispatch workload's canned DockingResult: 200 seeded poses, which
    encode to a RESULT frame of about 15 KB."""
    import numpy as np
    from crossdock.docking import DockingResult, Pose
    from crossdock.grid import GridSpec, ScoringParams

    rng = np.random.default_rng([seed, 3])
    scores = 100.0 - np.cumsum(rng.random(200))
    cells = rng.integers(0, 54, size=(200, 3))
    rotations = rng.integers(0, 84, size=200)
    poses = tuple(
        Pose(int(r), int(x), int(y), int(z), float(s))
        for r, (x, y, z), s in zip(rotations, cells, scores)
    )
    origin = tuple(float(v) for v in rng.normal(scale=30.0, size=3))
    return DockingResult(
        task_id="canned", receptor_id="canned_receptor", ligand_id="canned_ligand",
        grid_spec=GridSpec(54, 1.2, origin), params=ScoringParams(), angular_step=STEP,
        top_poses=poses, best_score=poses[0].score, wall_time=float(rng.random() * 20),
    )


def _worker_loop(port: int, slots: int, executor, worker_id: str) -> int:
    from crossdock.dispatch import worker_loop

    # The worker may start before the master binds: retry every 5 ms.
    return worker_loop(("127.0.0.1", port), slots=slots, executor=executor,
                       worker_id=worker_id, backoff_initial=0.005, backoff_cap=0.005,
                       max_retries=4000)


# --- pair ----------------------------------------------------------------
# One protein-sized random-blob pair: a 1,500-atom receptor and a 500-atom
# ligand (n = 54), 84 rotations. Nearly all the time is the per-rotation hot
# path (rotate, voxelize, FFT, reduce) on the largest grid, while parse, grid
# sizing and the rotation set run once, so this isolates the docking kernel.
# dock_pair runs at threads = nproc (wall_s) and then at threads = 1
# (wall_alt_s, the single-thread baseline).


class Pair:
    settings = {"dock_pair_threads": [NPROC, 1], "angular_step": STEP}

    def setup(self, work: Path, seed: int, tracer: Tracer | None) -> dict:
        _import_crossdock()
        from crossdock.pdb_io import load_structure

        load = tracer.wrap("load_structure", load_structure, _atoms) if tracer else load_structure
        return {"receptor": load(work / "receptor.pdb"), "ligand": load(work / "ligand.pdb"),
                "seed": seed}

    def unit(self, state: dict, tracer: Tracer | None):
        from crossdock.docking import DockConfig, dock_pair

        call = tracer.wrap("dock_pair", dock_pair, _threads) if tracer else dock_pair
        rec, lig = state["receptor"], state["ligand"]
        t0 = time.perf_counter()
        multi = call(rec, lig, DockConfig(angular_step=STEP, threads=NPROC))
        t1 = time.perf_counter()
        single = call(rec, lig, DockConfig(angular_step=STEP, threads=1))
        t2 = time.perf_counter()

        def check(problems: list[str]) -> tuple[int, int]:
            self._check(state, multi, single, problems)
            return 2, 0

        return {"wall_s": [t1 - t0], "wall_alt_s": [t2 - t1]}, check

    def _check(self, state, multi, single, problems) -> None:
        import numpy as np
        from crossdock.docking import Pose, place_ligand
        from crossdock.grid import LIGAND, RECEPTOR, assign_grid

        def exact(poses):
            return [(p.rotation_index, p.tx, p.ty, p.tz, p.score.hex()) for p in poses]

        if exact(multi.top_poses) != exact(single.top_poses):
            problems.append(f"top-K differs between threads={NPROC} and threads=1")
        _check_digest("pair", _digest(_pose_lines(multi.top_poses)), state["seed"], problems)

        # Re-score the best 10 poses by direct_correlate's cyclic sum at
        # their own translation, on independently rasterized grids.
        lig = state["ligand"]
        spec = multi.grid_spec
        receptor = np.conj(assign_grid(state["receptor"], spec, RECEPTOR).voxels)
        for pose in multi.top_poses[:10]:
            unshifted = Pose(pose.rotation_index, 0, 0, 0, pose.score)
            coords = place_ligand(multi, unshifted, lig, wrap=False)
            ligand = assign_grid(lig.with_coords(coords), spec, LIGAND).voxels
            shifted = np.roll(ligand, (-pose.tx, -pose.ty, -pose.tz), axis=(0, 1, 2))
            score = float(np.sum(receptor * shifted).real)
            if abs(score - pose.score) > 1e-6:
                problems.append(f"pose {pose} re-scores to {score!r}")

    def layers(self, setup_spans: list[Span], units: list[list[Span]], state: dict) -> dict:
        loads = [s for s in setup_spans if s.name == "load_structure"]
        out = {
            "pdb_io.parse_s": _total(loads),
            "pdb_io.atoms_per_s": sum(s.info for s in loads) / _total(loads),
        }
        per_unit = []
        for spans in units:
            multi, single = sorted((s for s in spans if s.name == "dock_pair"),
                                   key=lambda s: s.start)
            m = docking_layers(spans, [single])
            m["docking.thread_busy_frac"] = _busy_frac(spans, [multi])
            rotations = sum(1 for s in spans if s.parent == multi.id and s.name == "rotate_structure")
            m["docking.rotations_per_s"] = rotations / multi.seconds
            per_unit.append(m)
        out.update(_median_dicts(per_unit))
        return out


# --- cross ---------------------------------------------------------------
# The paper's own command and metric: `crossdock cross`, called in-process
# through crossdock.cli.main, on 4 receptors (60-300 atoms) x 4 ligands
# (15, 40 and 80 atoms, and one with no ATOM records). Grids are small and
# differ in size (n = 24..32), so the time goes to voxelize cost per ligand atom, fixed
# costs per task (re-parse, grid sizing, rotation set, receptor grid), lanes
# that each run dock_pair on several threads, imbalance at the batch tail,
# and the retry path: the bad ligand must fail exactly its 4 tasks after
# max_attempts, with exit code 3, while every other cell completes. Each unit
# calls the command twice: with the default inner threads (wall_s), where
# nproc lanes x nproc threads oversubscribe the cores, and with --threads 1
# (wall_alt_s), where they do not. The step is 90 degrees (24 rotations):
# the fixed costs per task are what this workload is for, pair covers the
# rotation scan, and short calls let a run average about eight units.

INSTANCE = "bench-host"
MAX_ATTEMPTS = 3  # the cross command's default
CROSS_STEP = 90.0
CROSS_CALLS = (("wall_s", []), ("wall_alt_s", ["--threads", "1"]))


class Cross:
    settings = {"workers": NPROC, "inner_threads": {"wall_s": "default (nproc)", "wall_alt_s": 1},
                "max_attempts": MAX_ATTEMPTS, "angular_step": CROSS_STEP}

    def setup(self, work: Path, seed: int, tracer: Tracer | None) -> dict:
        _import_crossdock()
        from crossdock import cli, costmodel  # noqa: F401

        receptors = (work / "receptors.txt").read_text(encoding="utf-8").split()
        ligands = (work / "ligands.txt").read_text(encoding="utf-8").split()
        ids = [f"{Path(r).stem}__{Path(l).stem}" for r in receptors for l in ligands]
        return {"work": work, "seed": seed, "ids": ids, "count": 0, "traced": []}

    def unit(self, state: dict, tracer: Tracer | None):
        from crossdock import cli

        work = state["work"]
        transitions: list[None] = []
        if tracer:
            def adapt(pool_run):
                def run(tasks, workers, policy=None, executor=None, transition_hook=None):
                    from crossdock.dispatch import execute_task

                    return pool_run(tasks, workers, policy,
                                    tracer.wrap("executor", executor or execute_task, _executed),
                                    lambda _state: transitions.append(None))
                return run

            tracer.patch(cli, "local_pool_run", "local_pool_run", adapt=adapt)
        values, calls = {}, []
        for key, extra in CROSS_CALLS:
            state["count"] += 1
            out = work / f"cross-{state['count']}"
            argv = ["cross", str(work / "receptors.txt"), str(work / "ligands.txt"),
                    "--step", str(CROSS_STEP), "--workers", str(NPROC), "--out-dir", str(out),
                    "--instance-name", INSTANCE, *extra]
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            values[key] = [wall]
            calls.append((code, report, out))
            if tracer and key == "wall_s":
                state["traced"].append(len(transitions))
        state["completed"] = len(calls[0][1]["results"])

        def check(problems: list[str]) -> tuple[int, int]:
            attempted = failed = 0
            digests = []
            for code, report, out in calls:
                a, f, digest = self._check(state, code, report, out, problems)
                attempted, failed = attempted + a, failed + f
                digests.append(digest)
            if digests[0] != digests[1]:
                problems.append("top-K differs between inner threads = nproc and = 1")
            return attempted, failed

        return values, check

    def _check(self, state, code, report, out, problems) -> tuple[int, int, str]:
        from crossdock import costmodel

        if code != 3:
            problems.append(f"exit code {code}, expected 3")
        expect_failed = {t for t in state["ids"] if t.endswith(f"__{inputs.BAD_LIGAND}")}
        failed = {f["task_id"]: f["attempts"] for f in report["failed"]}
        done = {r["task_id"] for r in report["results"]}
        if failed != {t: MAX_ATTEMPTS for t in expect_failed}:
            problems.append(f"failed tasks {failed}, expected {sorted(expect_failed)}")
        if done != set(state["ids"]) - expect_failed:
            problems.append(f"completed {sorted(done)}")
        lines = []
        for r in sorted(report["results"], key=lambda r: r["task_id"]):
            lines.append(r["task_id"])
            lines.extend(f"{p['rotation_index']} {p['tx']} {p['ty']} {p['tz']} "
                         f"{round(p['score'], 6)!r}" for p in r["top_poses"])
        digest = _digest(lines)
        _check_digest("cross", digest, state["seed"], problems)

        # Analyzer layer: price the measured run with a one-row catalog for
        # this machine (nominal price) and report the fee without gating it.
        runs = costmodel.load_runs(out / "runs.tsv")
        analysis = costmodel.build_report(costmodel.load_catalog(BENCH / "catalog.tsv"), runs)
        if runs[0].n_pairs != len(done):
            problems.append(f"runs.tsv records {runs[0].n_pairs} pairs, not {len(done)}")
        state.setdefault("fee_usd_per_3481_pairs", analysis.rows[0].fee * 3481 / runs[0].n_pairs)
        unexpected = len(set(failed) ^ expect_failed)
        return len(state["ids"]), unexpected, digest

    @staticmethod
    def check_bundled(problems: list[str]) -> None:
        from crossdock import costmodel

        bundled = costmodel.build_report(costmodel.load_catalog(), costmodel.load_runs())
        speedup = bundled.scaling_for("NC24", 5, 40).speedup
        scaling = bundled.scaling_for("NC24", 5, 20).strong_scaling
        if round(speedup, 2) != 5.91 or round(scaling, 3) != 0.890:
            problems.append(f"analyzer: NC24 speedup {speedup!r}, scaling {scaling!r}")

    def layers(self, setup_spans, units: list[list[Span]], state: dict) -> dict:
        """Layer metrics of each unit's first call (default inner threads)."""
        per_unit = []
        for spans, transitions in zip(units, state["traced"]):
            pool = min((s for s in spans if s.name == "local_pool_run"), key=lambda s: s.start)
            named = defaultdict(list)
            for s in spans:
                if pool.start <= s.start and s.end <= pool.end:
                    named[s.name].append(s)
            loads = [s for s in named["load_structure"] if s.ok]
            executions = named["executor"]
            m = {
                "pdb_io.parse_s": _total(named["load_structure"]),
                "pdb_io.atoms_per_s": sum(s.info for s in loads) / _total(loads),
            }
            m.update(docking_layers(spans, named["dock_pair"]))
            m["docking.rotations_per_s"] = len(named["rotate_structure"]) / pool.seconds
            m.update(dispatch_layers(executions, pool.seconds, NPROC, "dispatch."))
            m["dispatch.transitions"] = transitions
            m["dispatch.attempts"] = len(executions)
            m["dispatch.retries"] = len(executions) - len({s.info[0] for s in executions})
            per_unit.append(m)
        return _median_dicts(per_unit)


# --- dispatch --------------------------------------------------------------
# The paper-sized 59 x 59 = 3,481-task list with a no-op executor that returns
# one canned 200-pose DockingResult (a RESULT frame of about 15 KB). Each unit
# runs the whole list through local_pool_run (workers = nproc) once before
# and once after a TCP batch (wall_s), and its first 10 rows, 590 tasks,
# through master_run with one worker_loop child (slots = nproc) over
# loopback (wall_alt_s). This isolates master bookkeeping, lane hand-off and
# the wire codec, which the docking workloads hide behind seconds of
# compute; the paper-sized count exposes costs that grow with the batch.
# The TCP batch is smaller because a TCP task is slow: on a 2-vCPU Xeon host
# it took 2.6-3.5 ms in a 590-task batch and about 7 ms in the whole list,
# which made one 25 s batch per run. Short units spread every path's samples
# over the run instead, and the host's speed changes in phases of seconds.
# The TCP half injects no fault on purpose: a raising task ends worker_loop,
# after which master_run waits startup_timeout and raises DispatchError (the
# known per-worker failure defect), so a fault there would measure a
# timeout, not dispatch.

TCP_TASKS = 10 * 59


class Dispatch:
    settings = {"local_workers": NPROC, "tcp_worker_slots": NPROC, "local_reps_per_unit": 2,
                "local_tasks": 59 * 59, "tcp_tasks": TCP_TASKS}

    def setup(self, work: Path, seed: int, tracer: Tracer | None) -> dict:
        _import_crossdock()
        from crossdock.dispatch import cross_tasks
        from crossdock.dispatch.tasks import DockingTask
        from crossdock.docking import DockConfig

        side = range(59)
        tasks = cross_tasks([f"r{i:02d}.pdb" for i in side], [f"l{j:02d}.pdb" for j in side],
                            DockConfig(angular_step=STEP))
        canned = canned_result(seed)
        # Bind and connect: one task served over loopback to an in-process
        # worker, which also loads the master and worker code paths.
        port = _free_port()
        reports = []
        probe = [DockingTask("handshake__probe", "handshake.pdb", "probe.pdb", DockConfig())]
        master = threading.Thread(target=lambda: reports.append(_serve(probe, port)))
        master.start()
        _worker_loop(port, 1, lambda task: canned, "handshake")
        return {"work": work, "seed": seed, "tasks": tasks, "canned": canned,
                "handshake": (master, reports), "batches": []}

    def unit(self, state: dict, tracer: Tracer | None):
        from crossdock.dispatch import local_pool_run

        tasks, canned = state["tasks"], state["canned"]
        ids = {t.task_id for t in tasks}
        outcomes = []
        local_s = []

        def local_batch() -> None:
            calls: list[str] = []

            def noop(task):
                calls.append(task.task_id)
                return canned

            with _Batch(state, tracer, "local") as batch:
                executor = tracer.wrap("executor", noop, _executed) if tracer else noop
                report = local_pool_run(tasks, workers=NPROC, executor=executor,
                                        transition_hook=batch.hook)
            local_s.append(batch.wall)
            outcomes.append((ids, report, Counter(calls)))

        local_batch()
        report, tcp_s, calls = self._tcp_batch(state, tracer)
        outcomes.append(({t.task_id for t in tasks[:TCP_TASKS]}, report, calls))
        local_batch()

        def check(problems: list[str]) -> tuple[int, int]:
            attempted = failed = 0
            for ids, report, calls in outcomes:
                attempted += len(ids)
                failed += len(ids - set(report.completed))
                if report.failed or set(report.completed) != ids:
                    problems.append(f"{len(report.completed)}/{len(ids)} completed")
                if set(calls) != ids or set(calls.values()) != {1}:
                    problems.append("an id did not run exactly once")
                if any(result != canned for result in report.completed.values()):
                    problems.append("a result differs from the canned one")
            return attempted, failed

        return {"wall_s": local_s, "wall_alt_s": [tcp_s]}, check

    def _tcp_batch(self, state, tracer):
        work = state["work"]
        tag = f"tcp-{time.monotonic_ns()}"
        port = _free_port()
        cmd = [sys.executable, str(Path(__file__).resolve()), "tcp-worker", str(work),
               str(state["seed"]), str(port), str(NPROC), "1" if tracer else "0", tag]
        with open(work / "tcp-worker.log", "ab") as log:
            child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log)
        try:
            if child.stdout.readline().strip() != b"ready":
                raise SystemExit("tcp worker failed to start; see tcp-worker.log")
            with _Batch(state, tracer, "tcp") as batch:
                report = _serve(state["tasks"][:TCP_TASKS], port, batch.hook)
            if child.wait(timeout=60) != 0:
                raise SystemExit("tcp worker exited with an error; see tcp-worker.log")
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if tracer:
            batch.record["worker_spans"] = load_spans(work / f"{tag}.spans.jsonl")
        outcome = json.loads((work / f"{tag}.json").read_text(encoding="utf-8"))
        return report, batch.wall, Counter(outcome["calls"])

    def layers(self, setup_spans, units, state: dict) -> dict:
        per_local, per_tcp = [], []
        for b in state["batches"]:
            if b["kind"] == "local":
                executions = [s for s in b["spans"] if s.name == "executor"]
                m = dispatch_layers(executions, b["wall"], NPROC, "dispatch.")
                m["dispatch.transitions"] = b["transitions"]
                m["dispatch.attempts"] = len(executions)
                per_local.append(m)
                continue
            worker = b["worker_spans"]
            executions = [s for s in worker if s.name == "executor"]
            m = dispatch_layers(executions, b["wall"], NPROC, "dispatch.tcp.")
            sent = [s for s in worker if s.name == "encode" and s.info[0] == "Result"]
            received = [s for s in b["spans"] if s.name == "decode" and s.info[0] == "Result"]
            m["wire.encode_us"] = 1e6 * statistics.median(s.seconds for s in sent)
            m["wire.decode_us"] = 1e6 * statistics.median(s.seconds for s in received)
            m["wire.result_bytes"] = statistics.median(s.info[1] for s in sent)
            per_tcp.append(m)
        out = _median_dicts(per_local)
        out.update(_median_dicts(per_tcp))
        return out


def _serve(tasks, port: int, hook=None):
    from crossdock.dispatch import master_run

    return master_run(tasks, ("127.0.0.1", port), transition_hook=hook)


class _Batch:
    """Times one dispatch batch; when tracing, counts its state transitions
    through the public transition_hook and keeps the spans it recorded."""

    def __init__(self, state: dict, tracer: Tracer | None, kind: str):
        self.tracer = tracer
        self.record = {"kind": kind, "transitions": 0}
        self.hook = self._count if tracer else None
        if tracer:
            state["batches"].append(self.record)

    def _count(self, _state) -> None:
        self.record["transitions"] += 1

    def __enter__(self):
        self._first = len(self.tracer.spans) if self.tracer else 0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        if self.tracer:
            self.record["spans"] = self.tracer.spans[self._first:]
            self.record["wall"] = self.wall
        return False


WORKLOADS = {"pair": Pair(), "cross": Cross(), "dispatch": Dispatch()}


# --- entry points ----------------------------------------------------------


def setup_only(name: str, work: Path, seed: int) -> None:
    state = WORKLOADS[name].setup(work, seed, None)
    seconds = time.perf_counter() - _T0
    _finish_setup(state)
    print(repr(seconds))


def _finish_setup(state: dict) -> None:
    handshake = state.pop("handshake", None)
    if handshake:
        master, reports = handshake
        master.join(timeout=30)
        if not reports or len(reports[0].completed) != 1:
            raise SystemExit("dispatch: loopback handshake did not complete")


def _run_units(spec, state, tracer, budget, problems, totals, unit_spans):
    """Repeat units while another one as long as the last still fits in
    ``budget`` seconds; at least one unit runs. Outputs are checked after
    each unit, outside the timed calls and with tracing off."""
    samples = defaultdict(list)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        first = len(tracer.spans) if tracer else 0
        if tracer:
            install(tracer)
        try:
            values, check = spec.unit(state, tracer)
        finally:
            if tracer:
                tracer.restore()
        if tracer:
            unit_spans.append(tracer.spans[first:])
        attempted, failed = check(problems)
        totals[0] += attempted
        totals[1] += failed
        for key, vals in values.items():
            samples[key].extend(vals)
        now = time.perf_counter()
        if now - start + (now - t0) > budget:
            return dict(samples)


def derived(name: str, state: dict, samples: dict) -> dict:
    """The paper's throughput figures, from the untraced samples; reported,
    never gated (wall_s and wall_alt_s are the gated forms)."""
    mean = statistics.fmean
    if name == "cross":
        from crossdock import costmodel

        return {"pairs_per_min": costmodel.throughput_pairs_per_min(state["completed"],
                                                                    mean(samples["wall_s"])),
                "fee_usd_per_3481_pairs_at_nominal_price": state["fee_usd_per_3481_pairs"]}
    if name == "dispatch":
        return {"local_tasks_per_s": len(state["tasks"]) / mean(samples["wall_s"]),
                "tcp_tasks_per_s": TCP_TASKS / mean(samples["wall_alt_s"])}
    return {}


def measure(name: str, work: Path, seed: int, seconds: float, trace: bool) -> None:
    spec = WORKLOADS[name]
    tracer = Tracer() if trace else None
    state = spec.setup(work, seed, tracer)
    setup_s = time.perf_counter() - _T0
    _finish_setup(state)
    setup_spans = list(tracer.spans) if tracer else []

    import numpy
    import scipy

    problems: list[str] = []
    totals = [0, 0]
    if name == "cross":
        Cross.check_bundled(problems)
    result = {"setup_s": setup_s, "problems": problems}
    if trace:
        # Untraced units first, so the traced ones can be compared with them.
        result["samples"] = _run_units(spec, state, None, seconds / 2, problems, totals, [])
        unit_spans: list[list[Span]] = []
        result["traced_samples"] = _run_units(spec, state, tracer, seconds / 2, problems,
                                              totals, unit_spans)
        result["layers"] = spec.layers(setup_spans, unit_spans, state)
        tracer.dump(work / "spans.jsonl")
    else:
        result["samples"] = _run_units(spec, state, None, seconds, problems, totals, [])
    result["attempted"], result["failed"] = totals
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["derived"] = derived(name, state, result["samples"])
    result["meta"] = {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "settings": spec.settings,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")


def tcp_worker(work: Path, seed: int, port: int, slots: int, trace: bool, tag: str) -> None:
    _import_crossdock()
    canned = canned_result(seed)
    calls: list[str] = []

    def noop(task):
        calls.append(task.task_id)
        return canned

    tracer = Tracer() if trace else None
    executor = noop
    if tracer:
        install(tracer)
        executor = tracer.wrap("executor", noop, _executed)
    print("ready", flush=True)
    _worker_loop(port, slots, executor, f"bench-{tag}")
    if tracer:
        tracer.restore()
        tracer.dump(work / f"{tag}.spans.jsonl")
    (work / f"{tag}.json").write_text(json.dumps({"calls": Counter(calls)}), encoding="utf-8")


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "setup":
        setup_only(argv[1], Path(argv[2]), int(argv[3]))
    elif mode == "measure":
        measure(argv[1], Path(argv[2]), int(argv[3]), float(argv[4]), argv[5] == "1")
    elif mode == "tcp-worker":
        tcp_worker(Path(argv[1]), int(argv[2]), int(argv[3]), int(argv[4]), argv[5] == "1",
                   argv[6])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])

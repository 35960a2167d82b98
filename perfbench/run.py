"""Crossdock benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload pair|cross|dispatch|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it builds nothing and imports crossdock
from the checkout's src/. It writes the seeded inputs under perfbench/_work/,
times set-up in fresh interpreters, then runs workload.py to measure. With
--trace 0 it prints every end-to-end metric that BENCHMARK.json lists, with
--trace 1 every per-layer metric it lists (0 for a layer that the workload
never calls) and the tracing overhead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKLOADS = ("pair", "cross", "dispatch")
SETUP_PROBES = 6  # fresh interpreters per run; the measuring one is a seventh
TIME_LIMIT_S = 175.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _child(args: list[str], log: Path, deadline: float) -> str:
    """Run workload.py in its own process group; kill the group on overrun."""
    with open(log, "ab") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "workload.py"), *args],
                                cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"workload.py {' '.join(args[:2])} overran; see {log}") from None
    if proc.returncode != 0:
        raise BenchError(f"workload.py {' '.join(args[:2])} exited {proc.returncode}; see {log}")
    return out.decode()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if name in inputs.WRITERS:
        inputs.WRITERS[name](seed, work)
    log = work / "workload.log"
    probes = [float(_child(["setup", name, str(work), str(seed)], log, deadline).split()[-1])
              for _ in range(SETUP_PROBES)]
    _child(["measure", name, str(work), str(seed), str(seconds), "1" if trace else "0"],
           log, deadline)
    r = json.loads((work / "result.json").read_text(encoding="utf-8"))

    # Timed calls are averaged, not medianed: a run's samples of one call
    # can fall into two clusters (the TCP batch, for one), and the median
    # then flips between them from run to run while the mean does not.
    median, mean = statistics.median, statistics.fmean
    if trace:
        metrics = dict(r["layers"])
        metrics["overhead.setup_s"] = r["setup_s"] - median(probes)
        for key, traced in r["traced_samples"].items():
            metrics[f"overhead.{key}"] = mean(traced) - mean(r["samples"][key])
        wanted = [m["name"] for m in spec["per_layer"]]
        # A layer this workload never calls did no work: it reads 0.
        unused = [key for key in wanted if key not in metrics]
        metrics.update((key, 0.0) for key in unused)
    else:
        metrics = {"setup_s": median(probes + [r["setup_s"]])}
        metrics.update((key, mean(values)) for key, values in r["samples"].items())
        metrics["peak_rss_mb"] = r["peak_rss_mb"]
        wanted, unused = [m["name"] for m in spec["end_to_end"]], []
    if sorted(metrics) != sorted(wanted):
        raise BenchError(f"{name} measured {sorted(metrics)}, BENCHMARK.json lists {wanted}")
    meta = dict(r["meta"], workload=name, seed=seed, seconds=seconds, trace=int(trace),
                cpu_model=_cpu_model(), setup_samples=len(probes) + 1,
                samples={k: len(v) for k, v in r["samples"].items()},
                derived=r["derived"], layers_unused=unused)
    return {"name": name, "correct": not r["problems"], "problems": r["problems"],
            "attempted": r["attempted"], "failed": r["failed"],
            "metrics": {key: metrics[key] for key in wanted}, "meta": meta}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crossdock" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/crossdock to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), spec))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for res in results:
        print("# meta " + json.dumps(res["meta"], sort_keys=True))
        for problem in res["problems"]:
            print(f"error: {res['name']}: {problem}", file=sys.stderr)
        for key, value in res["metrics"].items():
            print(f"{res['name']:<8} {key:<28} {value:>14.6g} {units[key]}")
            label = key if len(names) == 1 else f"{res['name']}:{key}"
            metrics[label] = {"value": value, "unit": units[key]}
    print(json.dumps({
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

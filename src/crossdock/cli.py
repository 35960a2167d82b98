"""Command-line entry point: dock, cross, master, worker, analyze, rotations.

Exit codes: 0 success; 1 input/parse error (a missing or unreadable input
file, or a malformed PDB); 2 grid/configuration error (a malformed analyzer
table included, and a config, list or analyzer file that is not UTF-8); 3
batch finished with permanently failed tasks.
Error messages go to standard error. Output files are written atomically
(temp file + rename) so an interrupted run never leaves a truncated matrix.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

from . import costmodel
from .dispatch import (
    DispatchPolicy,
    cross_tasks,
    local_pool_run,
    master_run,
    worker_loop,
)
from .docking import TSV_HEADER, DockConfig, dock_pair, generate_rotations
from .errors import CrossdockError, NoAtomsError, ParameterError, PdbParseError
from .pdb_io import load_structure

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_FAILED_TASKS = 3

ENV_LISTEN = "CROSSDOCK_LISTEN"
ENV_CONNECT = "CROSSDOCK_CONNECT"

log = logging.getLogger("crossdock")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _add_dock_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="JSON",
                   help="config file with docking defaults (flags override it)")
    p.add_argument("--pitch", type=float, default=None, help="voxel edge in A (default 1.2)")
    p.add_argument("--margin", type=int, default=None, dest="margin_voxels",
                   help="clearance voxels per side (default 4)")
    p.add_argument("--step", type=float, default=None, dest="angular_step",
                   help="rotation sampling step in degrees (default 15)")
    p.add_argument("--top-k", type=int, default=None, dest="top_k",
                   help="poses kept per pair (default 2000)")
    p.add_argument("--threads", type=int, default=None,
                   help="threads inside one docking run (default 0: the logical cores "
                        "divided by the lanes in this process, at least 1; all "
                        "cores for dock)")


def _build_config(args: argparse.Namespace) -> DockConfig:
    if args.config:
        cfg = DockConfig.from_dict(json.loads(costmodel._read_utf8(args.config)))
    else:
        cfg = DockConfig()
    overrides = {
        attr: getattr(args, attr)
        for attr in ("pitch", "margin_voxels", "angular_step", "top_k", "threads")
        if getattr(args, attr) is not None
    }
    return dataclasses.replace(cfg, **overrides)


def _print_config_header(cfg: DockConfig, extra: dict | None = None) -> None:
    fields = {
        "pitch": cfg.pitch,
        "margin": cfg.margin_voxels,
        "step": cfg.angular_step,
        "top_k": cfg.top_k,
        "threads": cfg.threads if cfg.threads else "auto",
    }
    if extra:
        fields.update(extra)
    print("# " + " ".join(f"{k}={v}" for k, v in fields.items()))


def _read_list_file(path: str) -> list[str]:
    entries = []
    base = Path(path).parent
    for raw in costmodel._read_utf8(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        p = Path(line)
        entries.append(str(p if p.is_absolute() else base / p))
    if not entries:
        raise ParameterError(f"list file {path} names no structures")
    return entries


def _endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ParameterError(f"endpoint must look like host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ParameterError(f"bad port in endpoint {text!r}") from None


def _write_batch_outputs(report, receptor_ids, ligand_ids, out_dir: Path,
                         instance_name: str, n_instances: int) -> None:
    _atomic_write(out_dir / "matrix.tsv", report.score_matrix_tsv(receptor_ids, ligand_ids))
    _atomic_write(out_dir / "results.tsv", report.results_tsv())
    _atomic_write(out_dir / "report.json", report.to_json() + "\n")
    runs = out_dir / "runs.tsv"
    record = report.run_record_tsv(instance_name, n_instances)
    if record is None:
        runs.unlink(missing_ok=True)  # a stale record would price another run
        print(f"no pair completed, so no run record: {runs} not written", file=sys.stderr)
    else:
        _atomic_write(runs, record)


def cmd_dock(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    receptor = load_structure(args.receptor)
    ligand = load_structure(args.ligand)
    _print_config_header(cfg)
    result = dock_pair(receptor, ligand, cfg)
    prefix = args.out or f"dock_{result.task_id}"
    _atomic_write(Path(f"{prefix}.json"), result.to_json() + "\n")
    _atomic_write(Path(f"{prefix}.tsv"), TSV_HEADER + "\n" + result.to_tsv_line() + "\n")
    print(f"best_score {result.best_score!r}")
    return EXIT_OK


def _run_batch(args: argparse.Namespace, mode: str) -> int:
    cfg = _build_config(args)
    receptors = _read_list_file(args.receptor_list)
    ligands = _read_list_file(args.ligand_list)
    tasks = cross_tasks(receptors, ligands, cfg)
    if getattr(args, "dry_run", False):
        print(f"{len(tasks)} tasks ({len(receptors)} receptors x {len(ligands)} ligands)")
        return EXIT_OK
    _print_config_header(cfg, {"tasks": len(tasks), "mode": mode})

    policy = DispatchPolicy(max_attempts=args.max_attempts,
                            startup_timeout=args.startup_timeout)
    if mode == "local":
        report = local_pool_run(tasks, workers=args.workers, policy=policy)
        n_instances = 1
    else:
        listen = _endpoint(args.listen or os.environ.get(ENV_LISTEN) or "")
        report = master_run(tasks, listen=listen, policy=policy)
        n_instances = max(len(report.per_worker), 1)

    receptor_ids = [Path(p).stem for p in receptors]
    ligand_ids = [Path(p).stem for p in ligands]
    out_dir = Path(args.out_dir)
    _write_batch_outputs(report, receptor_ids, ligand_ids, out_dir,
                         args.instance_name, n_instances)
    print(
        f"{len(report.completed)}/{report.total} tasks completed "
        f"in {report.wall_time:.1f} s; outputs in {out_dir}"
    )
    if report.failed:
        for tid in sorted(report.failed):
            print(f"failed after {report.failed[tid]} attempts: {tid}: {report.errors[tid]}",
                  file=sys.stderr)
        return EXIT_FAILED_TASKS
    return EXIT_OK


def cmd_cross(args: argparse.Namespace) -> int:
    return _run_batch(args, "local")


def cmd_master(args: argparse.Namespace) -> int:
    return _run_batch(args, "master")


def cmd_worker(args: argparse.Namespace) -> int:
    connect = _endpoint(args.connect or os.environ.get(ENV_CONNECT) or "")
    completed = worker_loop(connect, slots=args.slots)
    print(f"completed {completed} task(s)")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    catalog = costmodel.load_catalog(args.catalog)
    runs = costmodel.load_runs(args.runs)
    report = costmodel.build_report(catalog, runs)
    sys.stdout.write(costmodel.render_report(report))
    if args.json:
        _atomic_write(Path(args.json), report.to_json() + "\n")
    return EXIT_OK


def cmd_rotations(args: argparse.Namespace) -> int:
    rotations = generate_rotations(args.step)
    print(f"{len(rotations)} unique rotations at {args.step} degree step")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossdock",
        description="FFT grid docking, batch dispatch, and run-cost analysis",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dock", help="dock one receptor/ligand pair")
    p.add_argument("receptor", help="receptor PDB file")
    p.add_argument("ligand", help="ligand PDB file")
    _add_dock_flags(p)
    p.add_argument("--out", help="output prefix (default dock_<task_id>)")
    p.set_defaults(func=cmd_dock)

    def add_batch_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("receptor_list", help="text file with one receptor PDB path per line")
        p.add_argument("ligand_list", help="text file with one ligand PDB path per line")
        _add_dock_flags(p)
        p.add_argument("--out-dir", default=".", help="directory for matrix/report outputs")
        p.add_argument("--max-attempts", type=int, default=3, dest="max_attempts",
                       help="attempts before a task is recorded as failed (default 3)")
        p.add_argument("--startup-timeout", type=float, default=60.0, dest="startup_timeout",
                       help="seconds to wait for the first worker (default 60)")
        p.add_argument("--instance-name", default="local", dest="instance_name",
                       help="instance label written to runs.tsv (default local)")
        p.add_argument("--dry-run", action="store_true", dest="dry_run",
                       help="print the task count and exit")

    p = sub.add_parser("cross", help="all-to-all docking on worker lanes of this host")
    add_batch_flags(p)
    p.add_argument("--workers", type=int, default=max(os.cpu_count() or 1, 1),
                   help="worker lanes, each a forked process with its own connection "
                        "to this command's master (default: logical cores); with the "
                        "default --threads they share the cores")
    p.set_defaults(func=cmd_cross)

    p = sub.add_parser("master", help="serve an all-to-all batch to TCP workers")
    add_batch_flags(p)
    p.add_argument("--listen", help=f"host:port to bind (or ${ENV_LISTEN})")
    p.set_defaults(func=cmd_master)

    p = sub.add_parser("worker", help="run docking tasks for a master")
    p.add_argument("--connect", help=f"master host:port (or ${ENV_CONNECT})")
    p.add_argument("--slots", type=int, default=4,
                   help="concurrent task lanes in this worker (default 4), each a "
                        "forked process that opens its own connection to the master "
                        "and docks on the logical cores divided by the slots, at least 1")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("analyze", help="scaling/throughput/fee report from run records")
    p.add_argument("--catalog", help="instance catalog TSV (default: bundled Azure table)")
    p.add_argument("--runs", help="run records TSV (default: bundled published runs)")
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("rotations", help="print the rotation count for a step")
    p.add_argument("--step", type=float, required=True, help="angular step in degrees")
    p.set_defaults(func=cmd_rotations)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The level and the stderr handler go on the crossdock logger itself, so
    # that -v also works in a host program that configured the root logger.
    # The handler lives for this run only: repeated runs never stack them.
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s"))
    log.addHandler(handler)
    try:
        return args.func(args)
    except (PdbParseError, NoAtomsError, FileNotFoundError, IsADirectoryError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CrossdockError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())

"""Strong-scaling, throughput, fee and instance-comparison arithmetic.

Operates on an instance catalog (name, cores, peak flops, price per hour)
plus run records (instance, instance count, wall time, docked pairs). The
bundled data files carry the March-2017 Azure catalog and the published
cross-docking runs as historical constants; measured desk runs ingest
through the same TSV shapes the dispatcher emits.

Fees ignore deployment time on purpose: total fee is hourly price times
wall hours times instance count, nothing else. Display rounding is whole
seconds, 0.1 USD and 3 scaling decimals; full precision is kept internally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .errors import ComparisonError, ParameterError

__all__ = [
    "InstanceSpec",
    "RunRecord",
    "ScalingEntry",
    "Recommendation",
    "AnalysisReport",
    "strong_scaling",
    "speedup",
    "total_fee",
    "throughput_pairs_per_min",
    "compare_instances",
    "load_catalog",
    "load_runs",
    "RUN_COLUMNS",
    "build_report",
    "render_report",
]

_RATIO_TIE_TOL = 1e-9


@dataclass(frozen=True)
class InstanceSpec:
    """One cloud instance class from the catalog."""

    name: str
    cpu_model: str
    cores: int
    dp_peak_gflops: float
    gpus: int
    ram_gb: float
    rdma: bool
    price_usd_per_hour: float

    def __post_init__(self):
        for field in ("dp_peak_gflops", "ram_gb", "price_usd_per_hour"):
            if not math.isfinite(value := getattr(self, field)):
                raise ParameterError(f"{self.name}: {field} must be finite, got {value}")
        if self.cores <= 0:
            raise ParameterError(f"{self.name}: cores must be > 0")
        if self.price_usd_per_hour <= 0:
            raise ParameterError(f"{self.name}: price must be > 0")
        if self.gpus < 0:
            raise ParameterError(f"{self.name}: gpus must be >= 0")


@dataclass(frozen=True)
class RunRecord:
    """One measured (or published) batch run."""

    instance_name: str
    n_instances: int
    wall_time_s: float
    n_pairs: int

    def __post_init__(self):
        if self.n_instances <= 0 or not 0 < self.wall_time_s < math.inf or self.n_pairs <= 0:
            raise ParameterError(f"run record fields must be positive and finite: {self}")


@dataclass(frozen=True)
class ScalingEntry:
    instance_name: str
    base: RunRecord
    scaled: RunRecord
    speedup: float
    strong_scaling: float
    superlinear: bool


@dataclass(frozen=True)
class Recommendation:
    """Outcome of a speed-ratio vs price-ratio comparison."""

    recommended: str
    other: str
    speed_ratio: float  # time_b / time_a; > 1 means a is faster
    price_ratio: float  # price_a / price_b
    fee_recommended: float
    fee_other: float
    tie: bool


def _require_comparable(base: RunRecord, scaled: RunRecord) -> None:
    if base.instance_name != scaled.instance_name:
        raise ComparisonError(
            f"different instances: {base.instance_name} vs {scaled.instance_name}"
        )
    if base.n_pairs != scaled.n_pairs:
        raise ComparisonError(
            f"different workloads: {base.n_pairs} vs {scaled.n_pairs} pairs"
        )
    if scaled.n_instances <= base.n_instances:
        raise ComparisonError(
            f"scaled run must use more instances than base "
            f"({scaled.n_instances} <= {base.n_instances})"
        )


def speedup(base: RunRecord, scaled: RunRecord) -> float:
    """Wall-time ratio T_base / T_scaled for the same workload."""
    _require_comparable(base, scaled)
    return base.wall_time_s / scaled.wall_time_s


def strong_scaling(base: RunRecord, scaled: RunRecord) -> float:
    """Parallel efficiency: (T_base/T_scaled) / (n_scaled/n_base).

    1.0 is ideal; values above 1 are superlinear, reported as-is.
    """
    _require_comparable(base, scaled)
    return speedup(base, scaled) / (scaled.n_instances / base.n_instances)


def total_fee(spec: InstanceSpec, wall_time_s: float, n_instances: int) -> float:
    """Price x time (h) x instance count; deployment time is ignored."""
    if wall_time_s <= 0 or n_instances <= 0:
        raise ParameterError("wall_time_s and n_instances must be positive")
    return spec.price_usd_per_hour * (wall_time_s / 3600.0) * n_instances


def throughput_pairs_per_min(n_pairs: int, wall_time_s: float) -> float:
    if n_pairs <= 0 or wall_time_s <= 0:
        raise ParameterError("n_pairs and wall_time_s must be positive")
    return n_pairs / (wall_time_s / 60.0)


def compare_instances(
    a: tuple[InstanceSpec, RunRecord],
    b: tuple[InstanceSpec, RunRecord],
) -> Recommendation:
    """Recommend a over b iff its speed advantage beats its price premium.

    Requires runs of the same workload on the same instance count; exact
    ratio ties go to the cheaper instance.
    """
    spec_a, run_a = a
    spec_b, run_b = b
    if run_a.n_pairs != run_b.n_pairs:
        raise ComparisonError(
            f"different workloads: {run_a.n_pairs} vs {run_b.n_pairs} pairs"
        )
    if run_a.n_instances != run_b.n_instances:
        raise ComparisonError(
            f"different instance counts: {run_a.n_instances} vs {run_b.n_instances}"
        )
    speed_ratio = run_b.wall_time_s / run_a.wall_time_s
    price_ratio = spec_a.price_usd_per_hour / spec_b.price_usd_per_hour
    tie = abs(speed_ratio - price_ratio) <= _RATIO_TIE_TOL
    if tie:
        a_wins = spec_a.price_usd_per_hour <= spec_b.price_usd_per_hour
    else:
        a_wins = speed_ratio > price_ratio
    (winner, win_run), (other, other_run) = (a, b) if a_wins else (b, a)
    return Recommendation(
        recommended=winner.name,
        other=other.name,
        speed_ratio=speed_ratio,
        price_ratio=price_ratio,
        fee_recommended=total_fee(winner, win_run.wall_time_s, win_run.n_instances),
        fee_other=total_fee(other, other_run.wall_time_s, other_run.n_instances),
        tie=tie,
    )


# --- catalog and run-record TSV I/O -------------------------------------

_DATA = Path(__file__).parent / "data"
_CATALOG_COLUMNS = ("name", "cpu_model", "cores", "dp_peak_gflops", "gpus", "ram_gb",
                    "rdma", "price_usd_per_hour")
RUN_COLUMNS = ("instance", "n_instances", "wall_time_s", "n_pairs")


def _read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a file that does not decode is a
    ParameterError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _read_table(path: str | Path, columns: tuple[str, ...], kind: str,
                build: Callable[..., object]) -> Iterator:
    """``build(*cells)`` for each data row of a tab-separated table whose
    header must be ``columns``; blank lines and "#" comments are skipped.
    The shape of the whole table is checked before the first record is
    built. A ValueError from ``build`` becomes a ParameterError naming the
    file and the line."""
    header: list[str] | None = None
    rows: list[tuple[int, list[str]]] = []
    for number, line in enumerate(_read_utf8(path).splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = [c.strip() for c in line.split("\t")]
        if header is None:
            header = cells
            if tuple(header) != columns:
                raise ParameterError(
                    f"{path}: expected {kind} columns {list(columns)}, got {header}")
        elif len(cells) != len(columns):
            raise ParameterError(f"{path} line {number}: malformed {kind} row {cells}")
        else:
            rows.append((number, cells))
    if header is None:
        raise ParameterError(f"{path}: empty table")
    for number, cells in rows:
        try:
            record = build(*cells)
        except ValueError as exc:
            raise ParameterError(f"{path} line {number}: bad {kind} row {cells}: {exc}") from None
        yield record


def _instance_spec(name, cpu_model, cores, peak, gpus, ram, rdma, price) -> InstanceSpec:
    return InstanceSpec(name, cpu_model, int(cores), float(peak), int(gpus), float(ram),
                        rdma.lower() in ("yes", "true", "1"), float(price))


def _run_record(instance, n_instances, wall_time_s, n_pairs) -> RunRecord:
    return RunRecord(instance, int(n_instances), float(wall_time_s), int(n_pairs))


def load_catalog(path: str | Path | None = None) -> dict[str, InstanceSpec]:
    """Instance catalog TSV -> name-keyed specs. None loads the bundled
    March-2017 Azure catalog."""
    path = path or _DATA / "azure_catalog.tsv"
    catalog: dict[str, InstanceSpec] = {}
    for spec in _read_table(path, _CATALOG_COLUMNS, "catalog", _instance_spec):
        if spec.name in catalog:
            raise ParameterError(f"{path}: duplicate instance {spec.name}")
        catalog[spec.name] = spec
    return catalog


def load_runs(path: str | Path | None = None) -> list[RunRecord]:
    """Run-record TSV (RUN_COLUMNS, as BatchReport.run_record_tsv writes
    it) -> records. None loads the bundled published runs."""
    return list(_read_table(path or _DATA / "paper_runs.tsv", RUN_COLUMNS, "run", _run_record))


# --- full analysis report ------------------------------------------------

@dataclass(frozen=True)
class _RunRow:
    run: RunRecord
    throughput: float
    fee: float
    cores: int
    gpus: int
    price: float


@dataclass(frozen=True)
class AnalysisReport:
    rows: tuple[_RunRow, ...]
    scalings: tuple[ScalingEntry, ...]
    comparisons: tuple[Recommendation, ...]

    def to_json_dict(self) -> dict:
        return {
            "runs": [
                {
                    "instance": r.run.instance_name,
                    "n_instances": r.run.n_instances,
                    "wall_time_s": r.run.wall_time_s,
                    "n_pairs": r.run.n_pairs,
                    "throughput_pairs_per_min": r.throughput,
                    "total_fee_usd": r.fee,
                }
                for r in self.rows
            ],
            "scaling": [
                {
                    "instance": s.instance_name,
                    "base_instances": s.base.n_instances,
                    "scaled_instances": s.scaled.n_instances,
                    "speedup": s.speedup,
                    "strong_scaling": s.strong_scaling,
                    "superlinear": s.superlinear,
                }
                for s in self.scalings
            ],
            "comparisons": [
                {
                    "recommended": c.recommended,
                    "other": c.other,
                    "speed_ratio": c.speed_ratio,
                    "price_ratio": c.price_ratio,
                    "fee_recommended_usd": c.fee_recommended,
                    "fee_other_usd": c.fee_other,
                    "tie": c.tie,
                }
                for c in self.comparisons
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def scaling_for(self, instance: str, base_n: int, scaled_n: int) -> ScalingEntry:
        for s in self.scalings:
            if (
                s.instance_name == instance
                and s.base.n_instances == base_n
                and s.scaled.n_instances == scaled_n
            ):
                return s
        raise KeyError(f"no scaling entry {instance} {base_n}->{scaled_n}")


def build_report(catalog: dict[str, InstanceSpec], runs: list[RunRecord]) -> AnalysisReport:
    """Derive every throughput, fee, scaling and comparison figure.

    Scaling compares each instance's smallest-count run against every larger
    one (a repeated run at the smallest count is no scaling step and is
    skipped); comparisons pit the fastest instance of each (n_instances, n_pairs)
    group against the others, each instance by its fastest run there, so
    repeated runs of one instance are never compared with each other.
    Unknown instance names are an error.
    """
    for run in runs:
        if run.instance_name not in catalog:
            raise ComparisonError(f"unknown instance name {run.instance_name!r} in runs")

    rows = []
    for run in runs:
        spec = catalog[run.instance_name]
        rows.append(
            _RunRow(
                run=run,
                throughput=throughput_pairs_per_min(run.n_pairs, run.wall_time_s),
                fee=total_fee(spec, run.wall_time_s, run.n_instances),
                cores=spec.cores * run.n_instances,
                gpus=spec.gpus * run.n_instances,
                price=spec.price_usd_per_hour,
            )
        )

    by_instance: dict[tuple[str, int], list[RunRecord]] = {}
    for run in runs:
        by_instance.setdefault((run.instance_name, run.n_pairs), []).append(run)
    scalings = []
    for (name, _pairs), group in sorted(by_instance.items()):
        group = sorted(group, key=lambda r: r.n_instances)
        base = group[0]
        for scaled in group[1:]:
            if scaled.n_instances == base.n_instances:
                continue
            eff = strong_scaling(base, scaled)
            scalings.append(
                ScalingEntry(
                    instance_name=name,
                    base=base,
                    scaled=scaled,
                    speedup=speedup(base, scaled),
                    strong_scaling=eff,
                    superlinear=eff > 1.0,
                )
            )

    by_shape: dict[tuple[int, int], list[RunRecord]] = {}
    for run in runs:
        by_shape.setdefault((run.n_instances, run.n_pairs), []).append(run)
    comparisons = []
    for _shape, group in sorted(by_shape.items()):
        fastest_of: dict[str, RunRecord] = {}
        for run in sorted(group, key=lambda r: (r.wall_time_s, r.instance_name)):
            fastest_of.setdefault(run.instance_name, run)
        fastest, *others = fastest_of.values()
        for other in others:
            comparisons.append(
                compare_instances(
                    (catalog[fastest.instance_name], fastest),
                    (catalog[other.instance_name], other),
                )
            )

    return AnalysisReport(rows=tuple(rows), scalings=tuple(scalings),
                          comparisons=tuple(comparisons))


def render_report(report: AnalysisReport) -> str:
    """Human-readable tables: display rounding only (whole seconds, 0.1 USD,
    3 scaling decimals)."""
    out = []
    out.append("Runs")
    out.append(f"{'instance':<8} {'#inst':>5} {'cores':>6} {'GPUs':>5} "
               f"{'time':>8} {'pairs':>6} {'pairs/min':>9} {'USD/h':>6} {'fee USD':>8}")
    for r in report.rows:
        out.append(
            f"{r.run.instance_name:<8} {r.run.n_instances:>5} {r.cores:>6} "
            f"{r.gpus if r.gpus else '-':>5} {round(r.run.wall_time_s):>6} s "
            f"{r.run.n_pairs:>6} {round(r.throughput):>9} {r.price:>6.2f} {r.fee:>8.1f}"
        )
    if report.scalings:
        out.append("")
        out.append("Strong scaling")
        for s in report.scalings:
            flag = "  (superlinear)" if s.superlinear else ""
            out.append(
                f"{s.instance_name:<8} {s.base.n_instances:>3} -> {s.scaled.n_instances:<3} "
                f"instances  speedup {s.speedup:5.2f}x  scaling {s.strong_scaling:.3f}{flag}"
            )
    if report.comparisons:
        out.append("")
        out.append("Instance comparisons (speed ratio vs price ratio)")
        for c in report.comparisons:
            how = "tie broken by price" if c.tie else (
                f"speed ratio {c.speed_ratio:.2f} vs price ratio {c.price_ratio:.2f}"
            )
            out.append(
                f"recommend {c.recommended} over {c.other}: {how} "
                f"(fees {c.fee_recommended:.1f} vs {c.fee_other:.1f} USD)"
            )
    return "\n".join(out) + "\n"

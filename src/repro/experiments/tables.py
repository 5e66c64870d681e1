"""Tables 1-4 — saturation-regime utilization statistics.

The paper measures node utilization, traffic load, degree of hot spots
and leaves utilization "when both routing algorithms reach their
maximal throughputs".  ``run_tables`` reproduces this with saturated
sources (offered load 1 flit/clock/node, queues never drain): for every
sample, tree method and algorithm one saturated run provides all four
metrics, which are then averaged over samples — one run feeds all four
tables, as in the paper.

``run_static_tables`` computes the same four metrics from the exact
static path analysis instead (:mod:`repro.analysis`) — no simulation,
full paper scale in seconds.  Absolute values differ from the dynamic
run (no queueing, normalised loads); the paper's *orderings* (DOWN/UP
vs L-turn, M1 vs M2 vs M3) are what it cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.static_load import static_utilization_report
from repro.experiments.configs import ExperimentPreset
from repro.experiments.harness import (
    PAPER_ALGORITHMS,
    PAPER_METHODS,
    build_routings,
    make_topology,
)
from repro.experiments.parallel import UnitFailure, run_stage, tables_units
from repro.util.fsio import atomic_write_text
from repro.util.tables import format_csv

if TYPE_CHECKING:  # import cycle-free annotation only
    from repro.experiments.distributed import WorkerConfig

#: metric key -> (paper table number, pretty title)
TABLE_METRICS: Dict[str, Tuple[int, str]] = {
    "node_utilization": (1, "node utilization"),
    "traffic_load": (2, "traffic load (stddev of node utilization)"),
    "hot_spot_degree": (3, "degree of hot spots (%)"),
    "leaves_utilization": (4, "leaves utilization"),
}


@dataclass
class TablesResult:
    """Aggregated Tables 1-4 data.

    ``values[(metric, algorithm, method, ports)]`` is the mean over
    samples; ``throughput[(algorithm, method, ports)]`` records the
    accepted traffic of the saturated runs (context for EXPERIMENTS.md).
    ``failures`` lists every work unit that exhausted its retry budget
    (empty on a clean run); when non-empty the means cover fewer
    samples than requested and the CLI exits nonzero.
    """

    preset: str
    kind: str  # "simulated" or "static"
    samples: int
    values: Dict[Tuple[str, str, str, int], float] = field(default_factory=dict)
    throughput: Dict[Tuple[str, str, int], float] = field(default_factory=dict)
    raw: List[Tuple[str, str, str, int, int, float]] = field(
        default_factory=list
    )  # (metric, algorithm, method, ports, sample, value)
    failures: List[UnitFailure] = field(default_factory=list)

    def value(self, metric: str, algorithm: str, method: str, ports: int) -> float:
        """Mean value of one cell of a paper table."""
        return self.values[(metric, algorithm, method, ports)]

    def to_csv(self) -> str:
        """Every per-sample metric value as CSV."""
        return format_csv(
            ("metric", "algorithm", "method", "ports", "sample", "value"),
            self.raw,
        )


def _metric_order(report: Dict[str, float]) -> List[str]:
    """CSV row order for one unit's metrics.

    Canonical (:data:`TABLE_METRICS` first, extras after) rather than
    the report dict's iteration order, so a unit merged back from a
    JSON-round-tripped ledger record emits its rows exactly like a
    freshly simulated one — byte-identity of ``tables_simulated.csv``
    between resumed and uninterrupted runs depends on it.
    """
    ordered = [m for m in TABLE_METRICS if m in report]
    return ordered + [m for m in report if m not in TABLE_METRICS]


def _aggregate(result: TablesResult) -> None:
    sums: Dict[Tuple[str, str, str, int], List[float]] = {}
    for metric, alg, method, ports, _sample, value in result.raw:
        sums.setdefault((metric, alg, method, ports), []).append(value)
    for key, vals in sums.items():
        result.values[key] = sum(vals) / len(vals)


def run_tables(
    preset: ExperimentPreset,
    ports_list: Optional[Sequence[int]] = None,
    methods: Sequence[str] = PAPER_METHODS,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    out_dir: Optional[Path] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
    ledger_path: Optional[Path] = None,
    resume: bool = True,
    retries: Optional[int] = None,
    clock=None,
    artifact_cache: Optional[Path] = None,
    distributed: Optional["WorkerConfig"] = None,
    unit_timeout: Optional[float] = None,
) -> TablesResult:
    """Regenerate Tables 1-4 by simulation at saturation.

    The work list (:func:`~repro.experiments.parallel.tables_units`)
    runs through :func:`~repro.experiments.parallel.run_stage` at every
    worker count; ``workers > 1`` distributes the saturated runs over a
    process pool.  *ledger_path* streams every
    completed unit to a durable
    :class:`~repro.experiments.ledger.ResultLedger` and (with *resume*)
    skips units already recorded, merging them back in input order —
    the aggregation keys on the unit tuple, so records are accepted in
    any order and a resumed run reproduces an uninterrupted one
    byte-identically.  *retries*/*clock*/*artifact_cache* as in
    :func:`~repro.experiments.figure8.run_figure8` — the cache reuses
    the (topology, tree, routing) constructions a Figure-8 run of the
    same preset already published.  *distributed* joins a shared
    multi-host campaign as one lease-claiming worker
    (:mod:`repro.experiments.distributed`); *unit_timeout* bounds each
    unit's wall time — both as in
    :func:`~repro.experiments.figure8.run_figure8`.
    """
    ports_list = tuple(ports_list if ports_list is not None else preset.ports)
    result = TablesResult(preset=preset.name, kind="simulated", samples=preset.samples)
    records = run_stage(
        tables_units(preset, ports_list, methods, algorithms),
        "tables",
        workers=workers,
        progress=progress,
        ledger_path=ledger_path,
        resume=resume,
        retries=retries,
        clock=clock,
        cache_path=artifact_cache,
        distributed=distributed,
        unit_timeout=unit_timeout,
        failures=result.failures,
    )
    thr: Dict[Tuple[str, str, int], List[float]] = {}
    for res in records:
        # replicated presets append a replica index to the unit key;
        # each replica aggregates as one more independent observation
        alg, method, ports, sample, _rate = res["key"][:5]
        report = dict(res["report"])
        for metric in _metric_order(report):
            result.raw.append((metric, alg, method, ports, sample, report[metric]))
        thr.setdefault((alg, method, ports), []).append(res["accepted"])
    _aggregate(result)
    for key, vals in thr.items():
        result.throughput[key] = sum(vals) / len(vals)
    if out_dir is not None:
        atomic_write_text(
            Path(out_dir) / "tables_simulated.csv", result.to_csv() + "\n"
        )
    return result


def run_static_tables(
    preset: ExperimentPreset,
    ports_list: Optional[Sequence[int]] = None,
    methods: Sequence[str] = PAPER_METHODS,
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    out_dir: Optional[Path] = None,
    progress: Optional[Callable[[str], None]] = None,
    artifact_cache: Optional[Path] = None,
) -> TablesResult:
    """Tables 1-4 metrics from the exact static path analysis."""
    ports_list = tuple(ports_list if ports_list is not None else preset.ports)
    result = TablesResult(preset=preset.name, kind="static", samples=preset.samples)

    cache = None
    if artifact_cache is not None:
        from repro.experiments.artifacts import ArtifactCache

        cache = ArtifactCache(artifact_cache)
    for ports in ports_list:
        for sample in range(preset.samples):
            topology = make_topology(preset, ports, sample, cache=cache)
            routings = build_routings(
                topology,
                preset,
                sample,
                methods=methods,
                algorithms=algorithms,
                cache=cache,
            )
            if cache is not None:
                cache.flush_counters()
            for (alg, method), (routing, tree) in routings.items():
                report = static_utilization_report(routing, tree)
                for metric in _metric_order(report):
                    result.raw.append(
                        (metric, alg, method, ports, sample, report[metric])
                    )
                if progress is not None:
                    progress(
                        f"[static/{ports}p] sample {sample} {alg}/{method}: "
                        f"hotspots={report['hot_spot_degree']:.2f}%"
                    )
    _aggregate(result)

    if out_dir is not None:
        atomic_write_text(
            Path(out_dir) / "tables_static.csv", result.to_csv() + "\n"
        )
    return result

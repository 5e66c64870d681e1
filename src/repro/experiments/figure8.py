"""Figure 8 — average message latency vs accepted traffic.

For each test sample, each coordinated-tree method (M1/M2/M3) and each
algorithm (L-turn, DOWN/UP), the simulator sweeps the preset's offered
loads; the figure reports, per (algorithm, method, offered load), the
mean over samples of accepted traffic (x) and average message latency
(y).  ``run_figure8(..., ports=4)`` regenerates Figure 8(a) and
``ports=8`` Figure 8(b).
"""

from __future__ import annotations

import math
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

from repro.experiments.configs import ExperimentPreset
from repro.experiments.harness import PAPER_ALGORITHMS, PAPER_METHODS
from repro.experiments.parallel import UnitFailure, figure8_units, run_stage
from repro.util.ascii_plot import ascii_xy_plot
from repro.util.fsio import atomic_write_text
from repro.util.tables import format_csv

if TYPE_CHECKING:  # import cycle-free annotation only
    from repro.experiments.distributed import WorkerConfig


@dataclass
class Figure8Result:
    """Aggregated latency/throughput curves for one port configuration.

    ``series`` maps ``"<algorithm>/<method>"`` to a list of
    ``(accepted_traffic, average_latency)`` points averaged over
    samples, ordered by offered load.  ``raw`` keeps every per-sample
    point for statistical post-processing.  ``failures`` lists every
    work unit that exhausted its retry budget (empty on a clean run):
    when non-empty the aggregates cover fewer samples than requested
    and callers must surface that — the CLI exits nonzero.
    """

    ports: int
    preset: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    raw: List[Tuple[str, str, int, float, float, float]] = field(
        default_factory=list
    )  # (algorithm, method, sample, offered, accepted, latency)
    failures: List[UnitFailure] = field(default_factory=list)

    def saturation_throughput(self, key: str) -> float:
        """Max mean accepted traffic of one series."""
        return max(x for x, _ in self.series[key])

    def to_csv(self) -> str:
        """All raw points as CSV."""
        return format_csv(
            ("algorithm", "method", "sample", "offered", "accepted", "latency"),
            self.raw,
        )

    def to_ascii(self, max_latency_factor: float = 20.0) -> str:
        """Figure-8-style ASCII plot (post-saturation blowup clipped).

        Latency diverges beyond saturation; points above
        ``max_latency_factor x`` the minimum latency are dropped from
        the plot (they remain in the CSV).
        """
        floor = min(
            (y for pts in self.series.values() for _, y in pts if math.isfinite(y)),
            default=1.0,
        )
        clipped = {
            name: [
                (x, y)
                for x, y in pts
                if math.isfinite(y) and y <= max_latency_factor * floor
            ]
            for name, pts in self.series.items()
        }
        return ascii_xy_plot(
            clipped,
            x_label="accepted traffic (flits/clock/node)",
            y_label="avg message latency (clocks)",
            title=(
                f"Figure 8 ({self.ports}-port, preset={self.preset}): "
                "latency vs accepted traffic"
            ),
        )


def run_figure8(
    preset: ExperimentPreset,
    ports: int,
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
) -> Figure8Result:
    """Regenerate Figure 8 for one port configuration.

    Writes ``figure8_<ports>port.csv`` (raw points) and ``.txt`` (ASCII
    plot) into *out_dir* when given.  The work list
    (:func:`~repro.experiments.parallel.figure8_units`) runs through
    :func:`~repro.experiments.parallel.run_stage` at every worker
    count: ``workers > 1`` fans it over a process pool, one worker
    runs it in-process, and results are bit-identical either way.

    *ledger_path* makes the run durable: every completed unit streams
    to an append-only :class:`~repro.experiments.ledger.ResultLedger`,
    and (with *resume*, the default) units already recorded there are
    skipped — an interrupted run continues where it stopped and the
    final artefacts are byte-identical to an uninterrupted one.  The
    aggregation below keys on the unit tuple, so it accepts ledger
    records in any order.  *retries* bounds per-unit re-attempts after
    a crash (default :data:`~repro.experiments.parallel.DEFAULT_RETRIES`);
    units that exhaust it are collected in ``result.failures`` (the
    CLI turns a non-empty list into a nonzero exit).  *clock* injects
    the progress/ETA timer.

    *artifact_cache* points the run at a content-addressed construction
    cache (:mod:`repro.experiments.artifacts`): each (topology, tree,
    routing) is built once and reused by every offered load and every
    subsequent run.  Without it each process that runs units still
    shares every construction across offered loads, in memory.  Results
    are bit-identical with a store or without.

    *distributed* joins a shared multi-host campaign instead of running
    alone: this process becomes one worker of
    :func:`~repro.experiments.distributed.run_distributed` (lease-based
    claims, per-worker ledger shards in the stage directory under the
    config's campaign dir, deterministic merge).  The aggregates — and
    therefore the artefacts — are byte-identical to a single-host run.
    *unit_timeout* bounds each unit's wall time (hung simulations are
    charged a failed attempt instead of stalling the run) on every
    path: serial, pooled and distributed.
    """
    result = Figure8Result(ports=ports, preset=preset.name)
    records = run_stage(
        figure8_units(preset, ports, methods, algorithms),
        f"figure8-{ports}port",
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
    acc: Dict[Tuple[str, str, float], List[float]] = {}
    lat: Dict[Tuple[str, str, float], List[float]] = {}
    for res in records:
        # replicated presets append a replica index to the unit key;
        # each replica aggregates as one more independent observation
        alg, method, _ports, sample, rate = res["key"][:5]
        accepted, latency = res["accepted"], res["latency"]
        result.raw.append((alg, method, sample, rate, accepted, latency))
        acc.setdefault((alg, method, rate), []).append(accepted)
        lat.setdefault((alg, method, rate), []).append(latency)

    # aggregate: mean accepted and mean latency per (alg, method, rate)
    for alg in algorithms:
        for method in methods:
            pts: List[Tuple[float, float]] = []
            for rate in preset.rates_for(ports):
                a = acc.get((alg, method, rate))
                l = lat.get((alg, method, rate))
                if a:
                    pts.append((sum(a) / len(a), sum(l) / len(l)))
            result.series[f"{alg}/{method}"] = pts

    if out_dir is not None:
        out_dir = Path(out_dir)
        # atomic publication: concurrent distributed workers finishing
        # the stage together each publish the (byte-identical) artefact
        atomic_write_text(
            out_dir / f"figure8_{ports}port.csv", result.to_csv() + "\n"
        )
        atomic_write_text(
            out_dir / f"figure8_{ports}port.txt", result.to_ascii() + "\n"
        )
    return result

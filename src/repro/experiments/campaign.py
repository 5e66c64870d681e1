"""Campaign orchestration: the full evaluation as one resumable run.

A *campaign* is the complete set of artefacts the paper's evaluation
produces — Figure 8(a), Figure 8(b), Tables 1-4 (simulated), Tables 1-4
(static cross-check) — generated into one output directory with a
manifest.  Stages are skipped when their artefacts already exist, so an
interrupted archival run resumes where it stopped (`--force` in the CLI
re-runs everything).

This is the library form of the shell scripts used for the results in
EXPERIMENTS.md::

    from repro.experiments.campaign import run_campaign
    run_campaign(get_preset("paperlite"), Path("results/archival"))
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.experiments.configs import ExperimentPreset
from repro.util.fsio import atomic_write_text
from repro.util.wallclock import Clock, resolve_clock

if TYPE_CHECKING:  # import cycle-free annotation only
    from repro.experiments.distributed import WorkerConfig
from repro.experiments.figure8 import run_figure8
from repro.experiments.report import (
    render_all_tables,
    render_figure8_summary,
    winners,
)
from repro.experiments.tables import run_static_tables, run_tables


@dataclass
class StageResult:
    """Bookkeeping for one campaign stage.

    ``failures`` lists the stage's work units that exhausted their
    retry budget (see
    :class:`~repro.experiments.parallel.UnitFailure`); the CLI exits
    nonzero when any stage reports one.
    """

    name: str
    skipped: bool
    seconds: float
    artefacts: List[str] = field(default_factory=list)
    failures: List[object] = field(default_factory=list)


def _stage_done(out_dir: Path, artefacts: Sequence[str]) -> bool:
    return all((out_dir / a).exists() for a in artefacts)


def run_campaign(
    preset: ExperimentPreset,
    out_dir: Path,
    workers: int = 1,
    force: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    include_static: bool = True,
    clock: Optional[Clock] = None,
    retries: Optional[int] = None,
    artifact_cache: Optional[Path] = None,
    use_artifact_cache: bool = True,
    distributed: Optional["WorkerConfig"] = None,
    unit_timeout: Optional[float] = None,
) -> List[StageResult]:
    """Generate every paper artefact for *preset* into *out_dir*.

    Stages (each skipped when its artefacts already exist, unless
    *force*):

    1. ``figure8-4port`` — Figure 8(a) CSV + ASCII plot + summary;
    2. ``figure8-8port`` — Figure 8(b) (only if the preset has 8-port);
    3. ``tables`` — Tables 1-4 simulated at saturation (CSV + rendered);
    4. ``static-tables`` — the exact static cross-check;
    5. ``audit`` — the turn-optimality audit of DOWN/UP's prohibited-turn
       set over the canonical topology zoo (``audit.csv`` / ``audit.txt``,
       see :mod:`repro.experiments.auditing`).

    Resumability is two-level.  Stage-level: a stage whose artefacts
    exist is skipped.  Unit-level: the simulation stages stream every
    completed work unit to a durable per-stage ledger
    (``ledger_<stage>.jsonl``, see :mod:`repro.experiments.ledger`), so
    a campaign killed mid-stage resumes from the last fsync'd unit and
    still produces byte-identical artefacts.  *force* restarts both
    levels (artefacts re-run, ledgers truncated).  *retries* bounds
    per-unit crash re-attempts.

    Construction work is shared across stages through the
    content-addressed artifact cache (on by default, at
    ``out_dir/artifact_cache`` unless *artifact_cache* names another
    store): the (topology, tree, routing) tuples the 4-port Figure-8
    stage builds are reused by every later stage and every re-run.
    *use_artifact_cache=False* names no store: each process that runs
    a stage's units then shares constructions in memory only for that
    run (see :func:`~repro.experiments.parallel.run_parallel`), and
    nothing is shared across stages or runs.  The cache is orthogonal to both
    resume levels — ledgers record simulation *results*, the cache
    stores construction *inputs* — and results are bit-identical with
    it on or off, so ``--force`` re-simulates everything without
    needing to clear it.

    A ``manifest.json`` records preset parameters, stage timings,
    ledger tallies, artifact-cache totals (hits/misses/entries), any
    units that exhausted their retry budget (``failed_units`` per
    stage — also surfaced on each :class:`StageResult` and turned into
    a nonzero CLI exit) and the winner summary, so the directory is
    self-describing.  *clock* injects the stage timer (defaults to the
    real wall clock); tests pass a fake for deterministic timings.

    *distributed* turns this call into one worker of a multi-host
    campaign (:mod:`repro.experiments.distributed`): the simulation
    stages claim work units through lease files under the config's
    shared campaign directory (normally *out_dir* itself) and stream
    results to per-worker ledger shards instead of the single-writer
    per-stage ledgers.  Every worker that finishes a stage publishes
    the byte-identical artefacts atomically, and a worker that arrives
    after a stage's artefacts exist skips it like any resumed run.
    The cheap static cross-check stage runs locally on every worker.
    *unit_timeout* bounds each unit's wall time in either mode.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir: Optional[Path] = None
    counters_at_start: Dict[str, int] = {}
    if use_artifact_cache:
        cache_dir = Path(artifact_cache) if artifact_cache else out_dir / "artifact_cache"
        from repro.experiments.artifacts import read_counters

        # the store's counter log is append-only and outlives runs:
        # snapshot it so the manifest reports *this* campaign's tallies
        counters_at_start = read_counters(cache_dir)
    say = progress or (lambda msg: None)
    tick = resolve_clock(clock)
    results: List[StageResult] = []

    stage_failures: Dict[str, List] = {}

    def stage(name: str, artefacts: Sequence[str], fn: Callable[[], None]) -> None:
        if not force and _stage_done(out_dir, artefacts):
            say(f"[campaign] {name}: artefacts exist, skipping")
            results.append(StageResult(name, True, 0.0, list(artefacts)))
            return
        say(f"[campaign] {name}: running")
        t0 = tick()
        fn()
        results.append(
            StageResult(
                name, False, tick() - t0, list(artefacts),
                failures=stage_failures.get(name, []),
            )
        )

    manifest: Dict[str, object] = {
        "preset": {
            "name": preset.name,
            "n_switches": preset.n_switches,
            "ports": list(preset.ports),
            "samples": preset.samples,
            "packet_length": preset.packet_length,
            "clocks": [preset.warmup_clocks, preset.measure_clocks],
            "seed": preset.seed,
        },
        "stages": {},
        "winners": {},
    }

    ledgers: Dict[str, str] = {}

    def stage_ledger(name: str) -> Path:
        path = out_dir / f"ledger_{name.replace('-', '_')}.jsonl"
        ledgers[name] = path.name
        return path

    def fig8(ports: int) -> Callable[[], None]:
        def run() -> None:
            result = run_figure8(
                preset, ports=ports, out_dir=out_dir,
                progress=progress, workers=workers,
                ledger_path=(
                    None if distributed is not None
                    else stage_ledger(f"figure8-{ports}port")
                ),
                resume=not force, retries=retries,
                artifact_cache=cache_dir,
                distributed=distributed, unit_timeout=unit_timeout,
            )
            stage_failures[f"figure8-{ports}port"] = result.failures
            atomic_write_text(
                out_dir / f"figure8_{ports}port_summary.txt",
                render_figure8_summary(result) + "\n",
            )
        return run

    for ports in preset.ports:
        stage(
            f"figure8-{ports}port",
            [f"figure8_{ports}port.csv", f"figure8_{ports}port_summary.txt"],
            fig8(ports),
        )

    def tables_stage() -> None:
        result = run_tables(
            preset, out_dir=out_dir, progress=progress, workers=workers,
            ledger_path=(
                None if distributed is not None else stage_ledger("tables")
            ),
            resume=not force, retries=retries,
            artifact_cache=cache_dir,
            distributed=distributed, unit_timeout=unit_timeout,
        )
        stage_failures["tables"] = result.failures
        from repro.experiments.harness import PAPER_ALGORITHMS

        atomic_write_text(
            out_dir / "tables_simulated.txt",
            render_all_tables(result, PAPER_ALGORITHMS, preset.ports) + "\n",
        )
        manifest["winners"]["simulated"] = winners(result, preset.ports)

    stage("tables", ["tables_simulated.csv", "tables_simulated.txt"], tables_stage)

    if include_static:
        def static_stage() -> None:
            result = run_static_tables(
                preset, out_dir=out_dir, progress=progress,
                artifact_cache=cache_dir,
            )
            from repro.experiments.harness import PAPER_ALGORITHMS

            atomic_write_text(
                out_dir / "tables_static.txt",
                render_all_tables(result, PAPER_ALGORITHMS, preset.ports)
                + "\n",
            )
            manifest["winners"]["static"] = winners(result, preset.ports)

        stage("static-tables", ["tables_static.csv", "tables_static.txt"], static_stage)

        def audit_stage() -> None:
            # turn-optimality audit over the canonical zoo: cheap, pure
            # static analysis, cached and resumable like every other
            # stage (distributed workers skip it via the artefact check
            # once one of them has published the outputs)
            from repro.experiments.auditing import (
                DEFAULT_AUDIT_ZOO,
                run_topology_audits,
            )

            run_topology_audits(
                DEFAULT_AUDIT_ZOO,
                out_dir=out_dir,
                artifact_cache=cache_dir,
                ledger_path=(
                    None if distributed is not None else stage_ledger("audit")
                ),
                resume=not force,
                progress=progress,
            )

        stage("audit", ["audit.csv", "audit.txt"], audit_stage)

    manifest["stages"] = {
        r.name: {
            "skipped": r.skipped,
            "seconds": round(r.seconds, 2),
            **({"ledger": ledgers[r.name]} if r.name in ledgers else {}),
            **(
                {"failed_units": [f.as_dict() for f in r.failures]}
                if r.failures
                else {}
            ),
        }
        for r in results
    }
    if cache_dir is not None:
        from repro.experiments.artifacts import read_counters, store_stats

        stats = store_stats(cache_dir)
        counters = {
            k: v - counters_at_start.get(k, 0)
            for k, v in read_counters(cache_dir).items()
        }
        manifest["artifact_cache"] = {
            "path": str(cache_dir),
            "entries": stats["entries"],
            "bytes": stats["bytes"],
            "hits": counters["hits"] + counters["memory_hits"],
            "misses": counters["misses"],
            "corrupt": counters["corrupt"],
        }
        say(
            "[campaign] artifact cache: "
            f"{manifest['artifact_cache']['hits']} hits, "
            f"{counters['misses']} misses, "
            f"{stats['entries']} entries on disk"
        )
    if distributed is not None:
        manifest["distributed"] = {
            "worker": distributed.worker,
            "campaign_dir": str(distributed.campaign_dir),
        }
    atomic_write_text(
        out_dir / "manifest.json",
        json.dumps(manifest, indent=2, default=str) + "\n",
    )
    say(f"[campaign] complete: {out_dir}/manifest.json")
    return results

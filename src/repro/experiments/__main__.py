"""Command-line entry point: ``python -m repro.experiments``.

Subcommands map one-to-one onto the paper's evaluation artefacts::

    python -m repro.experiments figure8 --preset quick --ports 4
    python -m repro.experiments tables  --preset quick
    python -m repro.experiments static-tables --preset midscale
    python -m repro.experiments campaign --preset paperlite --workers 8
    python -m repro.experiments work --campaign-dir /shared/run --preset paperlite
    python -m repro.experiments sweep --preset quick --traffic tornado --vcs 2
    python -m repro.experiments certify --preset quick --fault-links 2
    python -m repro.experiments equivalence --candidate batch --seeds 10
    python -m repro.experiments audit --zoo mesh3x3 ring8 --table
    python -m repro.experiments cache stats results/campaign_paperlite/artifact_cache
    python -m repro.experiments erratum
    python -m repro.experiments info

Results print to stdout; ``--out DIR`` additionally writes CSV/ASCII
artefacts for EXPERIMENTS.md.  ``--workers N`` parallelises the
independent simulations of ``figure8``/``tables``/``campaign`` with
bit-identical results.  ``--artifact-cache DIR`` (on by default for
``campaign``) shares one content-addressed construction cache across
work units and runs — again bit-identical; ``cache stats|verify|clear``
inspects or resets a store.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.configs import PRESETS, get_preset
from repro.simulator.config import (
    BIT_EXACT_ENGINES,
    ENGINES,
    require_fault_capable,
)
from repro.experiments.figure8 import run_figure8
from repro.experiments.harness import ALGORITHMS, PAPER_ALGORITHMS, PAPER_METHODS
from repro.experiments.report import (
    render_all_tables,
    render_figure8_summary,
    winners,
)
from repro.experiments.tables import run_static_tables, run_tables


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument(
            "--preset",
            default="quick",
            choices=sorted(PRESETS),
            help="scale preset (default: quick)",
        )
        sp.add_argument(
            "--samples", type=int, default=None, help="override sample count"
        )
        sp.add_argument(
            "--algorithms",
            nargs="+",
            default=list(PAPER_ALGORITHMS),
            choices=sorted(ALGORITHMS),
            help="algorithms to compare",
        )
        sp.add_argument(
            "--methods",
            nargs="+",
            default=list(PAPER_METHODS),
            choices=["M1", "M2", "M3"],
            help="coordinated-tree methods",
        )
        sp.add_argument("--out", type=Path, default=None, help="artefact dir")
        sp.add_argument(
            "--quiet", action="store_true", help="suppress progress lines"
        )
        sp.add_argument(
            "--workers", type=int, default=1,
            help="process-pool size for the simulations (default: serial)",
        )
        sp.add_argument(
            "--engine", default=None, choices=sorted(ENGINES),
            help="simulator step engine for every run (default: fast); "
            "reference and fast are bit-identical — choosing between "
            "them only trades speed — while 'batch' is certified "
            "statistically (see the equivalence subcommand) and changes "
            "result identities",
        )
        sp.add_argument(
            "--replicas", type=int, default=None, metavar="R",
            help="seed-replicas per (sample, algorithm, method, rate) "
            "cell; with --engine batch, sibling replicas run as one "
            "fused array sweep (repro.simulator.replica_batch) with "
            "per-replica results identical to sequential runs",
        )

    def caching(sp, default=None):
        sp.add_argument(
            "--artifact-cache", type=Path, default=None, metavar="DIR",
            help="content-addressed construction cache: each topology, "
            "tree and routing is built once, then reused by every work "
            "unit and every later run (results are bit-identical)"
            + (f"; default: {default}" if default else ""),
        )
        if default:
            sp.add_argument(
                "--no-artifact-cache", action="store_true",
                help="disable the construction cache",
            )

    def durability(sp):
        sp.add_argument(
            "--resume", type=Path, default=None, metavar="LEDGER",
            help="durable JSONL result ledger: completed units stream to "
            "it (fsync'd) and are skipped when the run restarts; created "
            "if missing",
        )
        sp.add_argument(
            "--retries", type=int, default=None,
            help="extra attempts per unit after a worker crash or error "
            "(default: 2); an exhausted unit is reported, not fatal",
        )
        sp.add_argument(
            "--unit-timeout", type=float, default=None, metavar="SECONDS",
            help="per-unit wall-time watchdog: a unit exceeding it is "
            "charged a failed attempt (against --retries) instead of "
            "hanging the run",
        )

    f8 = sub.add_parser("figure8", help="latency vs accepted traffic curves")
    common(f8)
    durability(f8)
    caching(f8)
    f8.add_argument("--ports", type=int, default=4, choices=(4, 8))

    tb = sub.add_parser("tables", help="Tables 1-4 (simulated, saturated)")
    common(tb)
    durability(tb)
    caching(tb)
    tb.add_argument("--ports", type=int, nargs="+", default=None)

    st = sub.add_parser("static-tables", help="Tables 1-4 (static analysis)")
    common(st)
    caching(st)
    st.add_argument("--ports", type=int, nargs="+", default=None)

    sw = sub.add_parser(
        "sweep",
        help="custom injection-rate sweep on one generated topology",
    )
    common(sw)
    sw.add_argument("--ports", type=int, default=4)
    sw.add_argument("--switches", type=int, default=None,
                    help="override the preset's switch count")
    sw.add_argument("--rates", type=float, nargs="+", default=None,
                    help="offered loads (flits/clock/node)")
    sw.add_argument(
        "--traffic",
        default="uniform",
        choices=("uniform", "hotspot", "tornado", "local", "bitcomp"),
    )
    sw.add_argument("--vcs", type=int, default=1,
                    help="virtual channels per physical channel")

    cp = sub.add_parser(
        "campaign",
        help="generate every paper artefact into one directory (resumable "
        "at both stage and work-unit level via per-stage ledgers)",
    )
    common(cp)
    cp.add_argument(
        "--retries", type=int, default=None,
        help="extra attempts per unit after a worker crash or error "
        "(default: 2); an exhausted unit is reported, not fatal",
    )
    cp.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-unit wall-time watchdog: a unit exceeding it is "
        "charged a failed attempt (against --retries) instead of "
        "hanging the run",
    )
    cp.add_argument("--force", action="store_true",
                    help="re-run stages whose artefacts already exist "
                    "(also truncates the per-stage unit ledgers)")
    cp.add_argument("--no-static", action="store_true",
                    help="skip the static-analysis cross-check stage")
    caching(cp, default="<out>/artifact_cache")

    wk = sub.add_parser(
        "work",
        help="join a shared campaign directory as one distributed worker "
        "(coordinator-less multi-host execution: run one per host, all "
        "pointed at the same --campaign-dir; merged artefacts are "
        "byte-identical to a single-host run)",
    )
    wk.add_argument(
        "--campaign-dir", type=Path, required=True, metavar="DIR",
        help="shared coordination directory (artefacts, lease files and "
        "per-worker ledger shards all live under it)",
    )
    wk.add_argument(
        "--preset", default="quick", choices=sorted(PRESETS),
        help="scale preset (default: quick); every worker must use the "
        "same preset — unit digests enforce it at merge time",
    )
    wk.add_argument(
        "--samples", type=int, default=None, help="override sample count"
    )
    wk.add_argument(
        "--engine", default=None, choices=sorted(ENGINES),
        help="simulator step engine; workers of one campaign may mix "
        "the bit-identical engines (reference/fast) freely, "
        "but 'batch' results carry engine-variant unit digests and "
        "never merge with bit-exact shards",
    )
    wk.add_argument(
        "--worker", default=None, metavar="ID",
        help="worker id, unique among live workers (default: "
        "<host>-<pid>); reusing a stable id lets a restarted worker "
        "resume its own ledger shard and reclaim its own leases "
        "immediately",
    )
    wk.add_argument(
        "--retries", type=int, default=None,
        help="extra attempts per unit after an error (default: 2)",
    )
    wk.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-unit wall-time watchdog; strongly recommended for "
        "multi-host runs (a hung unit renews its lease forever "
        "otherwise)",
    )
    wk.add_argument(
        "--poll-interval", type=float, default=0.5, metavar="SECONDS",
        help="idle re-scan period of the shared directory (default: 0.5)",
    )
    wk.add_argument(
        "--stale-scans", type=int, default=4,
        help="consecutive scans a lease must sit unchanged before its "
        "holder is presumed dead (default: 4; raise on filesystems "
        "with slow metadata propagation)",
    )
    wk.add_argument(
        "--poison-after", type=int, default=2,
        help="quarantine a unit once this many distinct workers died "
        "holding it (default: 2)",
    )
    wk.add_argument(
        "--no-static", action="store_true",
        help="skip the static-analysis cross-check stage",
    )
    wk.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    caching(
        wk, default="<campaign-dir>/artifact_cache, shared by every worker"
    )

    lf = sub.add_parser(
        "live-faults",
        help="live fault injection + online reconfiguration comparison",
    )
    common(lf)
    lf.add_argument("--ports", type=int, default=4)
    lf.add_argument("--switches", type=int, default=None,
                    help="override the preset's switch count")
    lf.add_argument("--link-failures", type=int, default=2,
                    help="permanent link failures to inject")
    lf.add_argument("--link-flaps", type=int, default=0,
                    help="transient link failures (down then up)")
    lf.add_argument("--switch-failures", type=int, default=0,
                    help="switch failures to inject")
    lf.add_argument("--fault-seed", type=int, default=42,
                    help="seed of the fault schedule")
    lf.add_argument("--drain-clocks", type=int, default=64,
                    help="drain window before each table swap")
    lf.add_argument("--policy", default="drop", choices=("drop", "drain"),
                    help="what happens to worms crossing a dying link")
    lf.add_argument("--rate", type=float, default=None,
                    help="offered load (default: preset's lowest rate)")
    caching(lf)

    cf = sub.add_parser(
        "certify",
        help="emit deadlock-freedom certificates and re-check them with "
        "the independent checker",
    )
    cf.add_argument(
        "--preset", default="quick", choices=sorted(PRESETS),
        help="scale preset (default: quick)",
    )
    cf.add_argument("--ports", type=int, default=4)
    cf.add_argument("--switches", type=int, default=None,
                    help="override the preset's switch count")
    cf.add_argument(
        "--algorithms",
        nargs="+",
        default=["down-up", "l-turn", "up-down"],
        choices=sorted(ALGORITHMS),
        help="algorithms to certify (default: all three of the paper)",
    )
    cf.add_argument("--out", type=Path, default=None,
                    help="write <algorithm>.cert.json files here")
    cf.add_argument("--fault-links", type=int, default=0,
                    help="also pre-flight-certify every table a random "
                    "fault schedule with this many link failures induces")
    cf.add_argument("--fault-seed", type=int, default=42,
                    help="seed of the pre-flight fault schedule")
    cf.add_argument("--quiet", action="store_true",
                    help="suppress progress lines")

    eq = sub.add_parser(
        "equivalence",
        help="statistical A/B certification of a relaxed engine "
        "('batch') against the bit-exact oracles: paired per-seed "
        "runs, Bonferroni-corrected paired-t CIs + latency KS gate",
    )
    eq.add_argument(
        "--candidate", default="batch", choices=sorted(ENGINES),
        help="engine under certification (default: batch)",
    )
    eq.add_argument(
        "--oracles", nargs="+", default=["fast"],
        choices=sorted(BIT_EXACT_ENGINES),
        help="bit-exact engines to certify against (default: fast)",
    )
    eq.add_argument(
        "--seeds", type=int, default=10,
        help="paired seeds per (scenario, engine) cell (default: 10)",
    )
    eq.add_argument(
        "--alpha", type=float, default=0.05,
        help="family-wise false-rejection rate of the whole gate "
        "(default: 0.05, Bonferroni-split across every test)",
    )
    eq.add_argument(
        "--switches", type=int, default=None,
        help="override the quick matrix's switch count",
    )
    eq.add_argument("--json", type=Path, default=None, metavar="PATH",
                    help="also write the full report as JSON")
    eq.add_argument("--quiet", action="store_true",
                    help="suppress progress lines")

    au = sub.add_parser(
        "audit",
        help="deadlock-freedom existence oracle + turn-optimality audit "
        "of the DOWN/UP prohibited-turn set over the topology zoo",
    )
    au.add_argument(
        "--zoo", nargs="+", default=None, metavar="NAME",
        help="zoo topologies to audit (default: the whole registry; "
        "see `repro-experiments info`)",
    )
    au.add_argument(
        "--table", action="store_true",
        help="print only the summary table (stable golden output)",
    )
    au.add_argument("--out", type=Path, default=None,
                    help="write audit.csv + audit.txt here")
    au.add_argument(
        "--artifact-cache", type=Path, default=None, metavar="DIR",
        help="serve repeated audits from a content-addressed store "
        "(keyed by topology digest + prohibited-turn set)",
    )
    au.add_argument(
        "--resume", type=Path, default=None, metavar="LEDGER",
        help="durable JSONL ledger: completed audits are skipped when "
        "the run restarts",
    )
    au.add_argument(
        "--require-slack", action="store_true",
        help="exit nonzero unless every audited topology shows nonzero "
        "prohibited-turn slack (CI gate)",
    )
    au.add_argument("--quiet", action="store_true",
                    help="suppress progress lines")

    ca = sub.add_parser(
        "cache",
        help="inspect, re-checksum or clear a construction-artifact store",
    )
    ca.add_argument("action", choices=("stats", "verify", "clear"))
    ca.add_argument("dir", type=Path, help="artifact store directory")

    sub.add_parser("erratum", help="demonstrate the Section 4.3 PT erratum")
    sub.add_parser("info", help="list presets and algorithms")
    return p


def _progress(quiet: bool):
    return (lambda msg: None) if quiet else (lambda msg: print(msg, flush=True))


def _report_failures(failures) -> int:
    """Print exhausted units to stderr; nonzero when any exist.

    Emitted even under ``--quiet``: artefacts from a partially-failed
    run cover fewer samples than requested, and that must never look
    like success (exit code 0 / silence).
    """
    if not failures:
        return 0
    print(
        f"ERROR: {len(failures)} work unit(s) exhausted their retry "
        "budget; artefacts cover fewer samples than requested",
        file=sys.stderr,
    )
    for f in failures:
        print(
            f"  {f.key} after {f.attempts} attempt(s): {f.error}",
            file=sys.stderr,
        )
    return 1


def _report_stages(stages, out: Path) -> int:
    """Print one line per campaign stage; nonzero when any unit failed."""
    for st in stages:
        state = "skipped" if st.skipped else f"{st.seconds:.1f}s"
        suffix = f"  ({len(st.failures)} unit(s) FAILED)" if st.failures else ""
        print(f"{st.name:18s} {state}{suffix}")
    print(f"artefacts in {out}")
    return _report_failures([f for st in stages for f in st.failures])


def _scale_preset(args):
    """Resolve the preset plus the common CLI overrides."""
    preset = get_preset(args.preset)
    if getattr(args, "samples", None):
        preset = preset.scaled(samples=args.samples)
    if getattr(args, "engine", None):
        preset = preset.scaled(engine=args.engine)
    if getattr(args, "replicas", None):
        preset = preset.scaled(replicas=args.replicas)
    return preset


def _cmd_cache(args) -> int:
    from repro.experiments.artifacts import (
        clear_store,
        store_stats,
        verify_store,
    )

    if args.action == "stats":
        s = store_stats(args.dir)
        c = s["counters"]
        print(f"store: {args.dir}")
        print(f"entries: {s['entries']} ({s['bytes']} bytes)")
        for kind, n in s["by_kind"].items():
            print(f"  {kind}: {n}")
        print(
            f"hits: {c['hits'] + c['memory_hits']} "
            f"(memory {c['memory_hits']})  misses: {c['misses']}  "
            f"corrupt: {c['corrupt']}  publishes skipped: "
            f"{c['publish_skipped']}"
        )
        return 0
    if args.action == "verify":
        checked, corrupt = verify_store(args.dir)
        for name in corrupt:
            print(f"CORRUPT {name}")
        print(f"checked {checked} entries: {len(corrupt)} corrupt")
        return 1 if corrupt else 0
    removed = clear_store(args.dir)
    print(f"removed {removed} file(s) from {args.dir}")
    return 0


def _cmd_figure8(args) -> int:
    preset = _scale_preset(args)
    result = run_figure8(
        preset,
        ports=args.ports,
        methods=args.methods,
        algorithms=args.algorithms,
        out_dir=args.out,
        progress=_progress(args.quiet),
        workers=args.workers,
        ledger_path=args.resume,
        retries=args.retries,
        artifact_cache=args.artifact_cache,
        unit_timeout=args.unit_timeout,
    )
    print()
    print(result.to_ascii())
    print()
    print(render_figure8_summary(result))
    return _report_failures(result.failures)


def _cmd_tables(args, static: bool) -> int:
    preset = _scale_preset(args)
    runner = run_static_tables if static else run_tables
    kwargs = (
        {}
        if static
        else {
            "workers": args.workers,
            "ledger_path": getattr(args, "resume", None),
            "retries": getattr(args, "retries", None),
            "unit_timeout": getattr(args, "unit_timeout", None),
        }
    )
    kwargs["artifact_cache"] = args.artifact_cache
    result = runner(
        preset,
        ports_list=args.ports,
        methods=args.methods,
        algorithms=args.algorithms,
        out_dir=args.out,
        progress=_progress(args.quiet),
        **kwargs,
    )
    ports_list = args.ports or preset.ports
    print()
    print(render_all_tables(result, args.algorithms, ports_list, args.methods))
    print()
    win = winners(result, ports_list)
    for metric, alg in sorted(win.items()):
        print(f"winner[{metric}] = {alg}")
    return _report_failures(result.failures)


def _make_traffic(name: str, n: int):
    from repro.simulator.traffic import (
        BitComplementTraffic,
        HotspotTraffic,
        LocalTraffic,
        TornadoTraffic,
        UniformTraffic,
    )

    return {
        "uniform": lambda: UniformTraffic(n),
        "hotspot": lambda: HotspotTraffic(n, hotspots=[0], fraction=0.2),
        "tornado": lambda: TornadoTraffic(n),
        "local": lambda: LocalTraffic(n, radius=3),
        "bitcomp": lambda: BitComplementTraffic(n),
    }[name]()


def _cmd_sweep(args) -> int:
    from repro.experiments.harness import build_routings, make_topology
    from repro.metrics.saturation import sweep_injection_rates
    from repro.simulator.vc_engine import simulate_vc
    from repro.util.tables import format_table

    preset = _scale_preset(args)
    if args.switches:
        preset = preset.scaled(n_switches=args.switches)
    topology = make_topology(preset, args.ports, sample=0)
    traffic = _make_traffic(args.traffic, topology.n)
    rates = tuple(args.rates) if args.rates else preset.rates_for(args.ports)
    progress = _progress(args.quiet)

    rows = []
    routings = build_routings(
        topology, preset, 0, methods=("M1",), algorithms=args.algorithms
    )
    for (alg, _method), (routing, _tree) in routings.items():
        cfg = preset.sim_config(seed=preset.seed)
        if args.vcs > 1:
            for rate in rates:
                stats = simulate_vc(
                    routing, cfg.with_rate(rate), num_vcs=args.vcs,
                    traffic=traffic,
                )
                rows.append(
                    [alg, rate, round(stats.accepted_traffic, 5),
                     round(stats.average_latency, 1)]
                )
                progress(f"{alg} rate={rate} done")
        else:
            for p in sweep_injection_rates(
                routing, cfg, rates, traffic=traffic, progress=progress
            ):
                rows.append(
                    [alg, p.offered, round(p.accepted, 5), round(p.latency, 1)]
                )
    print()
    print(
        format_table(
            ["algorithm", "offered", "accepted", "latency"],
            rows,
            title=(
                f"sweep: {topology}, traffic={args.traffic}, vcs={args.vcs}"
            ),
        )
    )
    return 0


def _cmd_campaign(args) -> int:
    from repro.experiments.campaign import run_campaign

    preset = _scale_preset(args)
    out = args.out or Path(f"results/campaign_{preset.name}")
    stages = run_campaign(
        preset,
        out,
        workers=args.workers,
        force=args.force,
        progress=_progress(args.quiet),
        include_static=not args.no_static,
        retries=args.retries,
        artifact_cache=args.artifact_cache,
        use_artifact_cache=not args.no_artifact_cache,
        unit_timeout=args.unit_timeout,
    )
    return _report_stages(stages, out)


def _cmd_work(args) -> int:
    from repro.experiments.campaign import run_campaign
    from repro.experiments.distributed import WorkerConfig, default_worker_id

    preset = _scale_preset(args)
    campaign_dir = args.campaign_dir
    config = WorkerConfig(
        campaign_dir=campaign_dir,
        worker=args.worker or default_worker_id(),
        poll_interval=args.poll_interval,
        stale_scans=args.stale_scans,
        poison_after=args.poison_after,
    )
    say = _progress(args.quiet)
    say(f"[work] worker {config.worker} joining {campaign_dir}")
    stages = run_campaign(
        preset,
        campaign_dir,
        workers=1,
        progress=say,
        include_static=not args.no_static,
        retries=args.retries,
        artifact_cache=args.artifact_cache,
        use_artifact_cache=not args.no_artifact_cache,
        distributed=config,
        unit_timeout=args.unit_timeout,
    )
    return _report_stages(stages, campaign_dir)


def _cmd_live_faults(args) -> int:
    from repro.experiments.harness import make_topology
    from repro.experiments.live_resilience import (
        render_live_fault_table,
        run_live_fault_campaign,
    )
    from repro.faults import FaultSchedule

    preset = _scale_preset(args)
    cfg = preset.sim_config(seed=preset.seed)
    try:
        require_fault_capable(cfg.resolved_engine)
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    if args.switches:
        preset = preset.scaled(n_switches=args.switches)
    topology = make_topology(preset, args.ports, sample=0)
    rate = args.rate if args.rate is not None else min(preset.rates_for(args.ports))
    cfg = cfg.with_rate(rate)
    # faults land in the first half of the measurement window so the
    # run can observe recovery
    window = (
        cfg.warmup_clocks,
        cfg.warmup_clocks + cfg.measure_clocks // 2,
    )
    schedule = FaultSchedule.random(
        topology,
        permanent_links=args.link_failures,
        link_flaps=args.link_flaps,
        switch_failures=args.switch_failures,
        window=window,
        rng=args.fault_seed,
    )
    print(f"fault schedule (seed {args.fault_seed}):")
    print(schedule.describe())
    print()
    results = run_live_fault_campaign(
        topology,
        schedule,
        cfg,
        algorithms=args.algorithms,
        drain_clocks=args.drain_clocks,
        policy=args.policy,
        seed=preset.seed,
        progress=_progress(args.quiet),
        artifact_cache=args.artifact_cache,
    )
    print()
    print(render_live_fault_table(results))
    return 0


def _cmd_certify(args) -> int:
    from repro.experiments.harness import make_topology, make_tree
    from repro.faults import FaultSchedule
    from repro.statics import certify_routing, preflight_schedule, recheck
    from repro.util.rng import derive_seed
    from repro.util.tables import format_table

    preset = get_preset(args.preset)
    if args.switches:
        preset = preset.scaled(n_switches=args.switches)
    topology = make_topology(preset, args.ports, sample=0)
    tree = make_tree(topology, "M1", preset, 0)
    progress = _progress(args.quiet)

    rows = []
    first_builder = None
    for alg in args.algorithms:
        builder = ALGORITHMS[alg]
        seed = derive_seed(preset.seed, 0xCE47, ord(alg[0]))
        routing = builder(topology, tree=tree, rng=seed)
        if first_builder is None:
            first_builder = (alg, builder, seed)
        bundle = certify_routing(routing, algorithm=alg)
        report = recheck(bundle)
        progress(f"[certify] {report.summary()}")
        rows.append(
            [
                alg,
                report.num_channels,
                report.dependency_edges,
                report.witness_pairs,
                report.progress_states,
                bundle.digest[:23],
            ]
        )
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            name = alg.replace("/", "-")
            (args.out / f"{name}.cert.json").write_text(
                bundle.to_json() + "\n", encoding="utf-8"
            )
    print()
    print(
        format_table(
            ["algorithm", "channels", "cdg edges", "witness paths",
             "progress states", "digest"],
            rows,
            title=f"independently re-checked certificates: {topology}",
        )
    )

    if args.fault_links > 0:
        schedule = FaultSchedule.random(
            topology,
            permanent_links=args.fault_links,
            window=(0, 10_000),
            rng=args.fault_seed,
        )
        alg, builder, seed = first_builder
        entries = preflight_schedule(
            schedule,
            lambda sub: builder(sub, tree=None, rng=seed),
            progress=progress,
        )
        print()
        print(
            f"pre-flight: every table the fault schedule induces is "
            f"certified ({len(entries)} degraded state(s), {alg})"
        )
        for e in entries:
            print(f"  {e.state.describe()} -> {e.certificate_digest[:23]}")
    return 0


def _cmd_equivalence(args) -> int:
    import dataclasses
    import json

    from repro.simulator.equivalence import QUICK_MATRIX, certify

    scenarios = QUICK_MATRIX
    if args.switches:
        scenarios = tuple(
            dataclasses.replace(sc, switches=args.switches)
            for sc in scenarios
        )
    report = certify(
        candidate=args.candidate,
        oracles=tuple(args.oracles),
        scenarios=scenarios,
        seeds=tuple(range(args.seeds)),
        family_alpha=args.alpha,
        progress=_progress(args.quiet),
    )
    print(report.render())
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.json}")
    return 0 if report.passed else 1


def _cmd_audit(args) -> int:
    from repro.analysis.turn_slack import render_turn_slack_table
    from repro.experiments.auditing import DEFAULT_AUDIT_ZOO, run_topology_audits
    from repro.topology.zoo import zoo_names

    names = args.zoo or list(DEFAULT_AUDIT_ZOO)
    unknown = [n for n in names if n not in zoo_names()]
    if unknown:
        print(
            f"ERROR: unknown zoo topolog{'ies' if len(unknown) > 1 else 'y'} "
            f"{', '.join(unknown)}; available: {', '.join(zoo_names())}",
            file=sys.stderr,
        )
        return 2
    reports = run_topology_audits(
        names,
        out_dir=args.out,
        artifact_cache=args.artifact_cache,
        ledger_path=args.resume,
        progress=_progress(args.quiet or args.table),
    )
    if not args.table:
        for r in reports:
            print(f"{r.summary()}")
            if r.necessary_turns:
                print(f"  necessary: {', '.join(r.necessary_turns)}")
            if r.redundant_turns:
                print(f"  individually droppable: {len(r.redundant_turns)} turn(s)")
            print(f"  digest: {r.digest[:23]}")
        print()
    print(render_turn_slack_table(reports))

    rc = 0
    bad = [r for r in reports if not r.feasible or not r.witness_rechecked]
    if bad:
        print(
            "ERROR: existence/recheck failed for: "
            + ", ".join(r.topology for r in bad),
            file=sys.stderr,
        )
        rc = 1
    if args.require_slack:
        flat = [r for r in reports if r.feasible and r.slack_pct <= 0.0]
        if flat:
            print(
                "ERROR: zero prohibited-turn slack on: "
                + ", ".join(r.topology for r in flat),
                file=sys.stderr,
            )
            rc = 1
    return rc


def _cmd_erratum() -> int:
    from repro.core.communication_graph import CommunicationGraph
    from repro.core.coordinated_tree import build_coordinated_tree
    from repro.core.direction_graph import (
        DOWN_UP_PROHIBITED_TURNS,
        PAPER_SECTION_4_3_PRINTED_PT,
    )
    from repro.core.downup import down_up_turn_model
    from repro.routing.channel_graph import find_turn_cycle
    from repro.topology.graph import Topology

    print(__doc__ or "")
    print("Section 4.3 erratum demonstration")
    print("=================================")
    diff_printed = sorted(
        str(t) for t in PAPER_SECTION_4_3_PRINTED_PT - DOWN_UP_PROHIBITED_TURNS
    )
    diff_fixed = sorted(
        str(t) for t in DOWN_UP_PROHIBITED_TURNS - PAPER_SECTION_4_3_PRINTED_PT
    )
    print(f"printed-only prohibitions : {diff_printed}")
    print(f"narrative-only prohibitions: {diff_fixed}")
    topo = Topology(5, [(0, 1), (0, 2), (0, 3), (1, 4), (3, 4), (2, 4), (2, 3)])
    cg = CommunicationGraph.from_tree(build_coordinated_tree(topo))
    printed = down_up_turn_model(
        cg, apply_phase3=False, prohibited=PAPER_SECTION_4_3_PRINTED_PT
    )
    fixed = down_up_turn_model(cg, apply_phase3=False)
    cyc = find_turn_cycle(printed)
    print(f"5-switch witness network : links={list(topo.links)}")
    print(f"printed PT turn cycle    : {cyc}  (channels; DEADLOCK POSSIBLE)")
    print(f"narrative PT turn cycle  : {find_turn_cycle(fixed)}")
    return 0 if cyc is not None else 1


def _cmd_info() -> int:
    print("presets:")
    for name, p in sorted(PRESETS.items()):
        print(
            f"  {name:9s} n={p.n_switches:4d} ports={p.ports} "
            f"samples={p.samples} packet={p.packet_length} "
            f"clocks={p.warmup_clocks}+{p.measure_clocks}"
        )
    print("algorithms:", ", ".join(sorted(ALGORITHMS)))
    from repro.topology.zoo import zoo_names

    print("zoo:", ", ".join(zoo_names()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatch (also the ``repro-experiments`` console script)."""
    args = _parser().parse_args(argv)
    if args.command == "figure8":
        return _cmd_figure8(args)
    if args.command == "tables":
        return _cmd_tables(args, static=False)
    if args.command == "static-tables":
        return _cmd_tables(args, static=True)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "work":
        return _cmd_work(args)
    if args.command == "live-faults":
        return _cmd_live_faults(args)
    if args.command == "certify":
        return _cmd_certify(args)
    if args.command == "equivalence":
        return _cmd_equivalence(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "erratum":
        return _cmd_erratum()
    if args.command == "info":
        return _cmd_info()
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

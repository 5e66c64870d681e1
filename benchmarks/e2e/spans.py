"""Outside-in span tracing for the end-to-end benchmark.

The program under test carries no instrumentation of its own.  This
module wraps the public entry points of each ``repro`` layer from the
outside: :func:`install` replaces every reference to a target function
(in every loaded module that imported it) and every target method (on
its class) with a wrapper that opens a span, and :meth:`Installed.restore`
puts the identical original objects back.

A span's *self time* is its duration minus the durations of the spans
it directly encloses, so the self times of all spans plus the time
spent outside any span add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Clock = Callable[[], float]


@dataclass(frozen=True)
class Target:
    """One traced entry point: ``attr`` is ``"func"`` or ``"Class.method"``."""

    module: str
    attr: str
    span: str
    probe: Optional[str] = None


def _t(module: str, attrs: str, span: str, probe: Optional[str] = None) -> List[Target]:
    return [Target(module, a, span, probe) for a in attrs.split()]


#: every traced entry point, by layer; the span names are the per-layer
#: metric prefixes declared in BENCHMARK.json
TARGETS: Tuple[Target, ...] = tuple(
    _t("repro.topology.generator", "random_irregular_topology", "topology.generate")
    + _t("repro.core.coordinated_tree", "build_coordinated_tree", "core.tree")
    + _t("repro.core.communication_graph", "CommunicationGraph.from_tree", "core.cg")
    + _t("repro.core.downup", "down_up_turn_model", "core.turn_model")
    + _t("repro.routing.lturn", "l_turn_turn_model", "core.turn_model")
    + _t("repro.routing.updown", "up_down_turn_model", "core.turn_model")
    + _t("repro.routing.release", "release_prohibited_turns", "core.release")
    + _t("repro.core.downup", "build_down_up_routing", "routing.build")
    + _t("repro.routing.lturn", "build_l_turn_routing", "routing.build")
    + _t("repro.routing.updown", "build_up_down_routing", "routing.build")
    + _t("repro.routing.table", "build_routing_function", "routing.table")
    + _t("repro.routing.verification", "verify_routing", "routing.verify")
    + _t("repro.statics.certificates", "certify_routing", "statics.certify")
    + _t("repro.statics.check", "recheck", "statics.recheck")
    + _t("repro.analysis.static_load", "static_utilization_report", "analysis.static_load")
    + _t("repro.simulator.engine", "WormholeSimulator.__init__", "simulator.init")
    + _t("repro.simulator.engine", "WormholeSimulator.run", "simulator.run", "stats")
    + _t("repro.simulator.replica_batch", "ReplicaBatchCore.__init__", "simulator.replica")
    + _t("repro.simulator.replica_batch", "ReplicaBatchCore.run", "simulator.replica", "stats")
    + _t("repro.faults.controller", "ReconfigurationController.rebuild", "faults.rebuild")
    + _t(
        "repro.experiments.artifacts",
        "ArtifactCache.get_or_build",
        "experiments.artifacts",
        "cache",
    )
    + _t(
        "repro.experiments.artifacts",
        "ArtifactCache.flush_counters read_counters store_stats",
        "experiments.artifacts",
    )
    + _t(
        "repro.experiments.ledger",
        "ResultLedger.__init__ ResultLedger.append_ok ResultLedger.append_failed "
        "ResultLedger.close unit_digest read_records",
        "experiments.ledger",
    )
    + _t("repro.experiments.parallel", "run_unit run_unit_group", "experiments.unit")
    + _t("repro.experiments.parallel", "run_parallel", "experiments.parallel")
    + _t("repro.experiments.figure8", "run_figure8", "experiments.stage")
    + _t("repro.experiments.tables", "run_tables run_static_tables", "experiments.stage")
    + _t("repro.experiments.auditing", "run_topology_audits", "experiments.stage")
    + _t(
        "repro.experiments.live_resilience",
        "run_live_fault_campaign",
        "experiments.stage",
    )
    + _t(
        "repro.experiments.report",
        "render_all_tables render_figure8_summary winners",
        "experiments.stage",
    )
    + _t("repro.experiments.campaign", "run_campaign", "experiments.campaign")
    + _t("repro.util.fsio", "atomic_write_text", "util.fsio")
    + _t("repro.metrics.utilization", "utilization_report", "metrics.utilization")
)

SPANS: Tuple[str, ...] = tuple(dict.fromkeys(t.span for t in TARGETS))

#: spans whose per-call durations are also reported as p50 / p90
PERCENTILE_SPANS: Tuple[str, ...] = ("simulator.run", "experiments.unit")

#: (name, unit) of every per-layer metric a traced pass reports
DERIVED: Tuple[Tuple[str, str], ...] = (
    ("simulator.clocks_per_s", "clocks/s"),
    ("simulator.flits_per_s", "flits/s"),
    ("simulator.active_set_occupancy", "fraction"),
    ("simulator.vec_flits_per_clock", "flits/clock"),
    ("faults.reconfigurations", "count"),
    ("faults.retries", "count"),
    ("experiments.artifacts.hits", "count"),
    ("experiments.artifacts.misses", "count"),
    ("experiments.artifacts.bytes_written", "bytes"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_s", "s"),
)


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for span in SPANS:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
        if span in PERCENTILE_SPANS:
            units[f"{span}.p50_s"] = "s"
            units[f"{span}.p90_s"] = "s"
    units.update(DERIVED)
    return units


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class Tracer:
    """Span stack plus per-span tallies; *clock* is injectable for tests."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._stack: List[List[object]] = []  # [span, start, child seconds]
        self.calls: Dict[str, int] = {s: 0 for s in SPANS}
        self.self_s: Dict[str, float] = {s: 0.0 for s in SPANS}
        self.durations: Dict[str, List[float]] = {s: [] for s in PERCENTILE_SPANS}
        self.counts: Dict[str, float] = {}
        self.units = 0
        self.wall_s = 0.0
        self._top_s = 0.0
        #: spans are recorded only inside :meth:`measure`
        self.active = False

    def enter(self, span: str) -> None:
        self._stack.append([span, self.clock(), 0.0])

    def exit(self) -> None:
        span, start, child = self._stack.pop()
        took = self.clock() - start
        self.calls[span] += 1
        self.self_s[span] += took - child
        if span in self.durations:
            self.durations[span].append(took)
        if self._stack:
            self._stack[-1][2] += took
        else:
            self._top_s += took

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def measure(self, fn: Callable[[], object]) -> object:
        """Run one benchmark unit as the trace root; returns its result."""
        if self.active:
            raise RuntimeError("units do not nest")
        self.active = True
        start = self.clock()
        try:
            return fn()
        finally:
            self.wall_s += self.clock() - start
            self.units += 1
            self.active = False

    @property
    def unattributed_s(self) -> float:
        """Traced wall time spent outside every span."""
        return self.wall_s - self._top_s

    def missing(self, expected: Sequence[str]) -> List[str]:
        """Expected spans that were never entered."""
        return [s for s in expected if not self.calls.get(s)]

    def note_stats(self, warmup_clocks: int, stats: Sequence[object]) -> None:
        """Fold simulation results into the derived simulator counters."""
        for s in stats:
            self.count("clocks", warmup_clocks + s.clocks)
            self.count("flits", float(s.consumed_flits.sum()))
            self.count("sched_visited", s.sched_visited_worms)
            self.count("sched_active", s.sched_active_worms)
            self.count("vec_moved", s.vec_moved_flits)
            self.count("vec_clocks", s.vec_clocks)
            self.count("faults.reconfigurations", len(s.reconfigurations))
            self.count("faults.retries", s.retries)

    def layer_metrics(self, call_cost: float) -> Dict[str, float]:
        """Per-unit values of every per-layer metric (see layer_metric_units).

        *call_cost* is what one traced call adds (see :func:`call_cost`);
        ``trace.overhead_frac`` is that cost times the calls made, over
        the traced wall time.
        """
        n = max(1, self.units)
        c = self.counts.get
        out: Dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.self_s"] = self.self_s[span] / n
            out[f"{span}.calls"] = self.calls[span] / n
            if span in PERCENTILE_SPANS:
                out[f"{span}.p50_s"] = percentile(self.durations[span], 50)
                out[f"{span}.p90_s"] = percentile(self.durations[span], 90)
        sim_s = self.self_s["simulator.run"] + self.self_s["simulator.replica"]
        out["simulator.clocks_per_s"] = _ratio(c("clocks", 0.0), sim_s)
        out["simulator.flits_per_s"] = _ratio(c("flits", 0.0), sim_s)
        out["simulator.active_set_occupancy"] = _ratio(
            c("sched_visited", 0.0), c("sched_active", 0.0)
        )
        out["simulator.vec_flits_per_clock"] = _ratio(
            c("vec_moved", 0.0), c("vec_clocks", 0.0)
        )
        for name in (
            "faults.reconfigurations",
            "faults.retries",
            "experiments.artifacts.hits",
            "experiments.artifacts.misses",
            "experiments.artifacts.bytes_written",
        ):
            out[name] = c(name, 0.0) / n
        out["trace.overhead_frac"] = _ratio(sum(self.calls.values()) * call_cost, self.wall_s)
        out["trace.unattributed_s"] = self.unattributed_s / n
        return out


# ---------------------------------------------------------------------------
# probes: read results at a span boundary
# ---------------------------------------------------------------------------


def _probe_stats(tracer: Tracer, args: tuple, kwargs: dict):
    owner = args[0]  # WormholeSimulator or ReplicaBatchCore
    sims = getattr(owner, "sims", None)
    warmup = (sims[0] if sims else owner).config.warmup_clocks

    def finish(result) -> None:
        tracer.note_stats(warmup, result if isinstance(result, list) else [result])

    return finish


def _probe_cache(tracer: Tracer, args: tuple, kwargs: dict):
    counters = args[0].counters
    before = counters.as_dict()

    def finish(result) -> None:
        after = counters.as_dict()
        delta = {k: after[k] - before[k] for k in after}
        tracer.count(
            "experiments.artifacts.hits",
            delta["hits"] + delta["memory_hits"] + delta["shared_hits"],
        )
        tracer.count("experiments.artifacts.misses", delta["misses"])
        tracer.count("experiments.artifacts.bytes_written", delta["bytes_written"])

    return finish


_PROBES = {"stats": _probe_stats, "cache": _probe_cache}


# ---------------------------------------------------------------------------
# rebinding
# ---------------------------------------------------------------------------


def _wrap(fn: Callable, span: str, tracer: Tracer, probe: Optional[str]) -> Callable:
    probe_fn = _PROBES[probe] if probe else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(span)
        try:
            finish = probe_fn(tracer, args, kwargs) if probe_fn else None
            result = fn(*args, **kwargs)
            if finish is not None:
                finish(result)
            return result
        finally:
            tracer.exit()

    return wrapper


def call_cost(clock: Clock, calls: int = 20_000) -> float:
    """Seconds one traced call adds: a wrapped no-op against a bare one.

    Measured rather than taken as traced-over-untraced wall time, whose
    run-to-run noise on a shared host is larger than the overhead.
    """
    tracer = Tracer(clock)
    tracer.active = True
    bare = lambda: None  # noqa: E731
    wrapped = _wrap(bare, SPANS[0], tracer, None)
    times = []
    for fn in (bare, wrapped):
        start = clock()
        for _ in range(calls):
            fn()
        times.append(clock() - start)
    return max(0.0, (times[1] - times[0]) / calls)


def _module_dicts() -> Iterator[dict]:
    for mod in list(sys.modules.values()):
        d = getattr(mod, "__dict__", None)
        if isinstance(d, dict):
            yield d


class Installed:
    """Handle of an installed tracer; :meth:`restore` undoes everything."""

    def __init__(self) -> None:
        self.methods: List[Tuple[type, str, object]] = []
        self.wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        #: targets the program no longer has; their spans stay at zero calls
        self.unbound: List[Target] = []

    def restore(self) -> None:
        for cls, name, raw in reversed(self.methods):
            setattr(cls, name, raw)
        self.methods.clear()
        # scan again rather than replaying the install sites: a module
        # imported while tracing was on copied the wrapper, too
        for d in _module_dicts():
            for key, value in list(d.items()):
                hit = self.wrappers.get(id(value))
                if hit is not None and hit[1] is value:
                    d[key] = hit[0]
        self.wrappers.clear()

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def install(tracer: Tracer, targets: Sequence[Target] = TARGETS) -> Installed:
    """Wrap every target at every import site; returns the undo handle."""
    handle = Installed()
    originals: Dict[int, Callable] = {}
    try:
        for t in targets:
            try:
                mod = importlib.import_module(t.module)
                owner_name, _, name = t.attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                raw = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                handle.unbound.append(t)
                continue
            if owner_name:
                cls = owner
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(raw.__func__, t.span, tracer, t.probe))
                else:
                    new = _wrap(raw, t.span, tracer, t.probe)
                handle.methods.append((cls, name, raw))
                setattr(cls, name, new)
            else:
                fn = raw
                wrapper = _wrap(fn, t.span, tracer, t.probe)
                originals[id(fn)] = fn
                handle.wrappers[id(wrapper)] = (fn, wrapper)
        by_original = {
            id(orig): wrapper for orig, wrapper in handle.wrappers.values()
        }
        for d in _module_dicts():
            for key, value in list(d.items()):
                wrapper = by_original.get(id(value))
                if wrapper is not None and originals[id(value)] is value:
                    d[key] = wrapper
    except BaseException:
        handle.restore()
        raise
    return handle

"""Resilience under traffic: live faults + online reconfiguration.

The static resilience study (:mod:`repro.analysis.resilience`) removes
links *before* routing is built.  This experiment injects the failures
*during* a simulation and lets each algorithm recover online: same
topology, same coordinated tree discipline, same seeded
:class:`~repro.faults.FaultSchedule` for every algorithm — the paper's
paired-sample methodology extended to the fault axis.

For each algorithm the run reports delivery (delivered fraction under
source-side retries), disruption (fault drops, retries, losses) and the
reconfiguration behaviour (trigger-to-swap latency; every swapped table
re-verified against Theorem 1).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.coordinated_tree import TreeMethod, build_coordinated_tree
from repro.experiments.harness import ALGORITHMS
from repro.faults import (
    FaultRuntime,
    FaultSchedule,
    ReconfigurationController,
    RetryPolicy,
)
from repro.metrics.degradation import degradation_report
from repro.simulator.config import SimulationConfig, require_fault_capable
from repro.simulator.engine import WormholeSimulator
from repro.simulator.stats import SimulationStats
from repro.topology.graph import Topology
from repro.util.rng import derive_seed

#: Algorithms compared by default: the paper's pair plus classic up*/down*.
LIVE_FAULT_ALGORITHMS: Tuple[str, ...] = ("down-up", "l-turn", "up-down")


@dataclass(frozen=True)
class LiveFaultResult:
    """One algorithm's run under a shared fault schedule."""

    algorithm: str
    stats: SimulationStats

    def report(self) -> Dict[str, float]:
        """Summary row: delivery, disruption, reconfiguration numbers."""
        row: Dict[str, float] = {"algorithm": self.algorithm}
        row.update(degradation_report(self.stats))
        row["accepted_traffic"] = self.stats.accepted_traffic
        row["avg_latency"] = self.stats.average_latency
        return row


@dataclass(frozen=True)
class _SurvivorBuilder:
    """A survivor-topology routing builder for the controller.

    Rebuilds the coordinated tree *on the degraded graph* — online
    reconfiguration recomputes its spanning tree, it does not try to
    salvage the broken one — then runs the named algorithm on it.  Equal
    fields make equal builders, so every run of one schedule shares the
    controller's certified rebuilds.
    """

    algorithm: str
    method: TreeMethod
    seed: int

    def __call__(self, sub: Topology):
        tree = build_coordinated_tree(sub, method=self.method, rng=self.seed)
        return ALGORITHMS[self.algorithm](sub, tree=tree, rng=self.seed)


def _cached_initial_build(
    cache, topology: Topology, algorithm: str, method: TreeMethod, seed: int
):
    """The pre-fault (tree, routing) build through the artifact cache.

    Keyed by topology *content* digest, so any caller handing the same
    graph (regardless of how it was generated) shares the entry.  Only
    the initial build goes through the artifact cache: reconfiguration
    rebuilds are memoised in-process by the controller, keyed by the
    builder and the survivor's content digest.
    """
    from repro.experiments.artifacts import tree_key_digest

    tree = cache.tree(
        topology,
        method.name,
        seed,
        lambda: build_coordinated_tree(topology, method=method, rng=seed),
    )
    build = ALGORITHMS[algorithm]
    return cache.routing(
        topology,
        tree_key_digest(topology, method.name, seed),
        algorithm,
        seed,
        lambda: build(topology, tree=tree, rng=seed),
    )


def run_live_fault_campaign(
    topology: Topology,
    schedule: FaultSchedule,
    config: SimulationConfig,
    algorithms: Sequence[str] = LIVE_FAULT_ALGORITHMS,
    method: TreeMethod = TreeMethod.M2,
    drain_clocks: int = 64,
    retry: Optional[RetryPolicy] = RetryPolicy(),
    policy: str = "drop",
    seed: int = 0,
    timeline_interval: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    artifact_cache: Optional[Path] = None,
) -> List[LiveFaultResult]:
    """Run every algorithm through the same live-fault scenario.

    All algorithms see the identical *schedule*, *config* (including
    the traffic seed) and retry policy; each gets its own
    :class:`FaultRuntime` (the runtimes are stateful) and a
    :class:`ReconfigurationController` wrapping its own builder, so
    each recovers with its own algorithm — DOWN/UP reconfigures to
    DOWN/UP, up*/down* to up*/down*, and so on.

    Raises whatever the engine raises (``DeadlockDetected``,
    ``LivelockSuspected``) — an algorithm that cannot survive the
    scenario fails loudly rather than producing a quiet bad row.  A
    *config* on a relaxed engine raises ``ValueError`` before any
    routing is built: those engines are certified fault-free only.

    *artifact_cache* serves the initial (pre-fault) tree/routing builds
    from the content-addressed construction cache, bound to the process
    so that repeated calls on one store share its decoded-object LRU.
    Recovery rebuilds run once per distinct (algorithm, tree method,
    seed, survivor) per process: the controller memoises each certified
    survivor routing, so later runs of the same schedule (the other
    policy, a repeat) reuse it and only remap it.
    """
    if schedule.topology != topology:
        raise ValueError("fault schedule built for a different topology")
    require_fault_capable(config.resolved_engine)
    say = progress or (lambda msg: None)
    cache = None
    if artifact_cache is not None:
        from repro.experiments.artifacts import set_process_cache

        cache = set_process_cache(artifact_cache)
    results: List[LiveFaultResult] = []
    for alg in algorithms:
        alg_seed = derive_seed(seed, zlib.crc32(alg.encode()))
        builder = _SurvivorBuilder(alg, method, alg_seed)
        if cache is None:
            routing = builder(topology)
        else:
            routing = _cached_initial_build(
                cache, topology, alg, method, alg_seed
            )
            cache.flush_counters()
        controller = ReconfigurationController(builder, drain_clocks=drain_clocks)
        sim = WormholeSimulator(routing, config)
        sim.stats.timeline_interval = timeline_interval
        sim.attach_faults(
            FaultRuntime(schedule, controller, retry=retry, policy=policy)
        )
        stats = sim.run()
        bad = [r for r in stats.reconfigurations if not r.verified]
        if bad:  # cannot happen via ReconfigurationController, but loud
            raise AssertionError(f"{alg}: unverified table swap {bad}")
        say(
            f"[live-faults] {alg}: delivered_fraction="
            f"{stats.delivered_fraction:.4f}, drops={stats.fault_drops}, "
            f"retries={stats.retries}, swaps={len(stats.reconfigurations)}"
        )
        results.append(LiveFaultResult(algorithm=alg, stats=stats))
    return results


def render_live_fault_table(results: Sequence[LiveFaultResult]) -> str:
    """ASCII comparison table of a live-fault campaign."""
    header = (
        f"{'algorithm':<12} {'delivered':>9} {'drops':>6} {'retries':>7} "
        f"{'lost':>5} {'swaps':>5} {'swap lat':>8} {'accepted':>9} "
        f"{'latency':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        rep = r.report()
        mean_lat = rep["mean_reconfiguration_latency"]
        lines.append(
            f"{r.algorithm:<12} {rep['delivered_fraction']:>9.4f} "
            f"{int(rep['fault_drops']):>6} {int(rep['retries']):>7} "
            f"{int(rep['lost_packets']):>5} {int(rep['reconfigurations']):>5} "
            f"{mean_lat:>8.1f} {rep['accepted_traffic']:>9.4f} "
            f"{rep['avg_latency']:>8.1f}"
        )
    return "\n".join(lines)

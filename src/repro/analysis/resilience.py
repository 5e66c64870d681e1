"""Link-failure resilience study.

Tree-based routing's raison d'être is that it tolerates *arbitrary*
irregularity — including the irregularity created by faults: after a
link dies, the algorithms simply recompute on the degraded graph.  This
module quantifies that story (a natural extension of the paper's
evaluation):

* :func:`degrade_topology` removes random links while preserving
  connectivity (links whose removal disconnects the network are never
  chosen — as in the NOW fault models of the related work);
* :func:`resilience_study` rebuilds a routing algorithm across
  increasing failure counts and records mean path length, adaptivity
  and static hot-spot degree, showing how gracefully each algorithm
  absorbs damage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.analysis.static_load import static_utilization_report
from repro.core.coordinated_tree import build_coordinated_tree
from repro.routing.base import RoutingFunction
from repro.routing.diagnostics import adaptivity
from repro.topology.graph import Topology
from repro.topology.validation import find_bridges
from repro.util.rng import RngLike, as_generator


def degrade_topology(
    topology: Topology, failures: int, rng: RngLike = None
) -> Topology:
    """Remove *failures* random non-bridge links, keeping connectivity.

    Bridges are recomputed after every removal (removing a link can turn
    others into bridges).  Raises ``ValueError`` when fewer than
    *failures* removable links exist.
    """
    gen = as_generator(rng)
    current = topology
    for k in range(failures):
        removable = sorted(set(current.links) - find_bridges(current))
        if not removable:
            raise ValueError(
                f"only {k} of {failures} links were removable without "
                "disconnecting the network"
            )
        victim = removable[int(gen.integers(len(removable)))]
        links = [l for l in current.links if l != victim]
        current = Topology(current.n, links, ports=current.ports)
    return current


@dataclass(frozen=True)
class ResiliencePoint:
    """Metrics of one (algorithm, failure count) combination."""

    failures: int
    mean_path: float
    adaptivity: float
    hot_spot_degree: float


def resilience_study(
    topology: Topology,
    builders: Dict[str, Callable[[Topology], RoutingFunction]],
    failure_counts: Sequence[int],
    rng: RngLike = 0,
) -> Dict[str, List[ResiliencePoint]]:
    """Rebuild each algorithm on increasingly degraded topologies.

    All algorithms see the *same* degraded instances (paired
    comparison).  Every rebuilt routing is verified by its builder, so
    the study doubles as a fault-model stress test of Theorem 1.
    """
    gen = as_generator(rng)
    degraded = {0: topology}
    worst = max(failure_counts)
    current = topology
    for k in range(1, worst + 1):
        current = degrade_topology(current, 1, gen)
        degraded[k] = current

    out: Dict[str, List[ResiliencePoint]] = {name: [] for name in builders}
    for k in failure_counts:
        topo_k = degraded[k]
        tree = build_coordinated_tree(topo_k)
        for name, build in builders.items():
            routing = build(topo_k)
            report = static_utilization_report(routing, tree)
            out[name].append(
                ResiliencePoint(
                    failures=k,
                    mean_path=routing.average_path_length(),
                    adaptivity=adaptivity(routing),
                    hot_spot_degree=report["hot_spot_degree"],
                )
            )
    return out

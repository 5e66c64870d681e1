"""Routing-function diagnostics.

Quantities that characterise a routing function beyond the four paper
metrics — used by the examples, the reports and the ablation benches:

* **path-length distribution** — the paper notes up*/down* suffers from
  long average paths; these histograms make the comparison direct;
* **adaptivity** — how many minimal admissible candidates a header has
  on average (more = more ways around congestion);
* **turn usage** — how many (input class → output class) turns each
  admissible dependency realises, exposing how restrictive a turn model
  is in practice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.routing.base import RoutingFunction
from repro.routing.channel_graph import dependency_adjacency


@dataclass(frozen=True)
class PathStats:
    """All-pairs shortest-admissible-path statistics."""

    mean: float
    maximum: int
    histogram: Dict[int, int]  # path length -> number of ordered pairs

    @property
    def diameter(self) -> int:
        """Longest shortest admissible path (the routing's diameter)."""
        return self.maximum


def path_length_stats(routing: RoutingFunction) -> PathStats:
    """Exact all-pairs path-length distribution of *routing*."""
    n = routing.topology.n
    hist: Counter = Counter()
    total = 0
    worst = 0
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            length = routing.path_length(s, d)
            hist[length] += 1
            total += length
            worst = max(worst, length)
    pairs = n * (n - 1)
    return PathStats(
        mean=total / pairs if pairs else 0.0,
        maximum=worst,
        histogram=dict(sorted(hist.items())),
    )


def adaptivity(routing: RoutingFunction) -> float:
    """Mean number of minimal admissible candidates per decision.

    Averages the candidate-set size over every reachable decision point:
    all (source, destination) injections plus all (channel, destination)
    en-route states with finite remaining distance.  1.0 means fully
    deterministic; larger values mean more adaptive freedom.
    """
    first = routing.candidate_sizes[routing.first_idx]
    np.fill_diagonal(first, 0)
    nxt = routing.candidate_sizes[routing.next_idx]
    nxt[(routing.dist <= 0) | (routing.dist == RoutingFunction.UNREACHABLE)] = 0
    sizes = np.concatenate((first[first > 0], nxt[nxt > 0]))
    # integer sizes: the mean does not depend on their order
    return float(np.mean(sizes)) if len(sizes) else 0.0


def turn_usage(routing: RoutingFunction) -> Dict[Tuple[str, str], int]:
    """Count admissible channel dependencies per (class -> class) pair.

    Keys use the turn model's class names; the counts describe the
    dependency graph (topology-level freedom), independent of any
    destination.
    """
    tm = routing.turn_model
    names = tm.class_names
    counts: Counter = Counter()
    adj = dependency_adjacency(tm)
    for a, outs in enumerate(adj):
        for b in outs:
            counts[(names[tm.channel_class[a]], names[tm.channel_class[b]])] += 1
    return dict(counts)


def compare_routings(routings: List[RoutingFunction]) -> List[List[object]]:
    """Rows of headline diagnostics per routing (for ``format_table``).

    Columns: name, mean path, diameter, adaptivity, dependency count.
    """
    rows: List[List[object]] = []
    for r in routings:
        ps = path_length_stats(r)
        deps = sum(len(a) for a in dependency_adjacency(r.turn_model))
        rows.append(
            [r.name, round(ps.mean, 3), ps.maximum, round(adaptivity(r), 3), deps]
        )
    return rows

"""Test helpers: hand-built routing functions and traffic patterns."""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.routing.base import RoutingFunction, TurnModel
from repro.topology.graph import Topology, path_channels


def fixed_path_routing(
    topology: Topology,
    paths: Dict[Tuple[int, int], Sequence[int]],
    name: str = "fixed",
) -> RoutingFunction:
    """A deterministic routing that follows exactly the given node paths.

    *paths* maps ``(src, dst)`` to a node sequence ``[src, ..., dst]``.
    Pairs not listed are unroutable.  Used to script precise worm
    movements (pipelining measurements, engineered deadlocks) without
    involving any turn-model construction.
    """
    n = topology.n
    UNREACH = RoutingFunction.UNREACHABLE
    dist = np.full((n, topology.num_channels), UNREACH, dtype=np.int32)
    next_hops: List[List[Tuple[int, ...]]] = [
        [() for _ in range(topology.num_channels)] for _ in range(n)
    ]
    first_hops: List[List[Tuple[int, ...]]] = [
        [() for _ in range(n)] for _ in range(n)
    ]
    for (s, d), nodes in paths.items():
        if nodes[0] != s or nodes[-1] != d:
            raise ValueError(f"path for {(s, d)} must run src -> dst")
        cids = path_channels(topology, list(nodes))
        first_hops[d][s] = (cids[0],)
        for i, c in enumerate(cids):
            dist[d][c] = len(cids) - 1 - i
            if i + 1 < len(cids):
                next_hops[d][c] = (cids[i + 1],)
    tm = TurnModel(
        topology, [0] * topology.num_channels, np.ones((1, 1), dtype=bool)
    )
    return routing_from_rows(
        topology, name, tm, dist, next_hops, first_hops, meta={"paths": dict(paths)}
    )


def routing_from_rows(
    topology: Topology,
    name: str,
    turn_model: TurnModel,
    dist: np.ndarray,
    next_hops: Sequence[Sequence[Tuple[int, ...]]],
    first_hops: Sequence[Sequence[Tuple[int, ...]]],
    meta: Optional[Dict[str, object]] = None,
) -> RoutingFunction:
    """A :class:`RoutingFunction` from tuple rows ``next_hops[d][c]`` /
    ``first_hops[d][s]``: each distinct tuple becomes one candidate set
    (the empty set first) and the rows become index arrays."""
    number: Dict[Tuple[int, ...], int] = {(): 0}

    def index(rows, width: int) -> np.ndarray:
        ids = [[number.setdefault(tuple(t), len(number)) for t in row] for row in rows]
        return np.array(ids, dtype=np.int32).reshape(topology.n, width)

    next_idx = index(next_hops, topology.num_channels)
    first_idx = index(first_hops, topology.n)
    return RoutingFunction(
        topology=topology,
        name=name,
        turn_model=turn_model,
        dist=dist,
        candidate_sets=tuple(number),
        next_idx=next_idx,
        first_idx=first_idx,
        meta=dict(meta or {}),
    )


class FixedDestinationTraffic:
    """Every source always sends to one fixed destination."""

    def __init__(self, mapping: Dict[int, int]) -> None:
        self.mapping = dict(mapping)

    def destination(self, src: int, rng) -> int:
        return self.mapping[src]


def v1_routing_payload(v2_text: str) -> str:
    """Rewrite a ``repro-routing-v2`` payload in the retired v1 layout
    (candidate sets written out in full in every table entry)."""
    data = json.loads(v2_text)
    candidates = data.pop("candidates")
    for field in ("next_hops", "first_hops"):
        data[field] = [[candidates[i] for i in row] for row in data[field]]
    data["format"] = "repro-routing-v1"
    return json.dumps(data, separators=(",", ":"))

"""The up*/down* routing baseline (Schroeder et al., DEC Autonet).

Every channel is labelled **up** or **down** from a spanning tree: the
"up" end of a link is the end closer to the root, ties (links inside one
tree level) broken toward the smaller switch id.  A packet may use zero
or more up channels followed by zero or more down channels — i.e. the
single prohibited turn is *down -> up*.  This guarantees deadlock
freedom (up channels are ordered by decreasing ``(level, id)``, down
channels by increasing, so no dependency cycle survives) and
connectivity (the tree path itself is up*-then-down*), but concentrates
traffic near the root — the hot-spot problem motivating both L-turn and
DOWN/UP.

Two spanning-tree variants are provided:

* ``bfs`` — the classic breadth-first tree (the paper's comparison
  basis; reuses the coordinated tree when one is supplied);
* ``dfs`` — the depth-first tree of Sancho/Robles/Duato, whose deeper
  trees shorten average up*/down* paths (related-work extension [6]).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.coordinated_tree import CoordinatedTree, build_coordinated_tree
from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.table import build_routing_function
from repro.routing.verification import verify_routing
from repro.topology.graph import Topology
from repro.util.rng import RngLike

UP, DOWN = 0, 1
_CLASS_NAMES = ("UP", "DOWN")


def _dfs_order(topology: Topology, root: int) -> List[int]:
    """DFS preorder ranks (``rank[v]``) from *root*, smaller-id-first."""
    rank = [-1] * topology.n
    counter = 0
    stack = [root]
    while stack:
        v = stack.pop()
        if rank[v] != -1:
            continue
        rank[v] = counter
        counter += 1
        # reversed so the smallest-id neighbour is popped first
        for w in sorted(topology.neighbors(v), reverse=True):
            if rank[w] == -1:
                stack.append(w)
    if counter != topology.n:
        raise ValueError("topology is disconnected")
    return rank


def up_down_channel_classes(
    topology: Topology,
    tree: Optional[CoordinatedTree] = None,
    variant: str = "bfs",
    root: int = 0,
) -> List[int]:
    """Label every channel UP or DOWN.

    For ``bfs`` the ordering key is ``(tree level, switch id)`` — a
    channel is *up* iff its sink precedes its start.  For ``dfs`` the
    key is the DFS preorder rank.  Keys are total orders, so exactly one
    channel of every link is up and the reverse is down.
    """
    if variant == "bfs":
        ct = tree if tree is not None else build_coordinated_tree(topology, root=root)
        key = [(ct.y[v], v) for v in range(topology.n)]
    elif variant == "dfs":
        rank = _dfs_order(topology, root)
        key = [(rank[v],) for v in range(topology.n)]
    else:
        raise ValueError(f"unknown up*/down* variant {variant!r}")

    classes = []
    for ch in topology.channels:
        classes.append(UP if key[ch.sink] < key[ch.start] else DOWN)
    return classes


def up_down_turn_model(
    topology: Topology,
    tree: Optional[CoordinatedTree] = None,
    variant: str = "bfs",
    root: int = 0,
) -> TurnModel:
    """The up*/down* turn state: everything allowed except down -> up."""
    allowed = np.ones((2, 2), dtype=bool)
    allowed[DOWN, UP] = False
    return TurnModel(
        topology,
        up_down_channel_classes(topology, tree, variant, root),
        allowed,
        class_names=_CLASS_NAMES,
    )


def build_up_down_routing(
    topology: Topology,
    tree: Optional[CoordinatedTree] = None,
    variant: str = "bfs",
    root: int = 0,
    rng: RngLike = None,
    verify: bool = True,
) -> RoutingFunction:
    """Construct the up*/down* routing function.

    *tree* lets experiments reuse the coordinated tree built for
    DOWN/UP so all algorithms are compared "under the same coordinated
    tree" (Section 5); *rng* is accepted for interface symmetry and
    unused (the construction is deterministic).
    """
    del rng  # deterministic construction; parameter kept for symmetry
    tm = up_down_turn_model(topology, tree, variant, root)
    routing = build_routing_function(
        tm,
        name=f"up-down/{variant}",
        meta={"variant": variant, "root": root, "tree": tree},
    )
    return verify_routing(routing) if verify else routing

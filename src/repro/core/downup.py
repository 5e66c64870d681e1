"""The DOWN/UP routing — Phases 1-3 assembled (Section 4).

``build_down_up_routing`` is the paper's headline construction:

* **Phase 1** — build the coordinated tree (M1/M2/M3) and the
  communication graph;
* **Phase 2** — apply the 18-turn prohibited set PT (the complement of
  the maximal ADDG ``ADDG_7``) at every switch;
* **Phase 3** — release the redundant ``*U_CROSS -> RD_TREE``
  prohibitions per switch via ``cycle_detection``.

The returned :class:`~repro.routing.base.RoutingFunction` routes over
shortest admissible paths and is machine-verified deadlock-free and
connected (Theorem 1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.communication_graph import CommunicationGraph
from repro.core.coordinated_tree import (
    CoordinatedTree,
    TreeMethod,
    build_coordinated_tree,
)
from repro.core.cycle_detection import release_redundant_turns
from repro.core.direction_graph import DOWN_UP_PROHIBITED_TURNS
from repro.core.directions import Direction, NUM_DIRECTIONS
from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.table import build_routing_function
from repro.routing.verification import verify_routing
from repro.topology.graph import Topology
from repro.util.rng import RngLike


def down_up_turn_model(
    cg: CommunicationGraph,
    apply_phase3: bool = True,
    prohibited: frozenset = DOWN_UP_PROHIBITED_TURNS,
) -> TurnModel:
    """The DOWN/UP per-switch turn state for communication graph *cg*.

    *apply_phase3* toggles the Phase-3 release pass (ablation knob);
    *prohibited* defaults to the canonical PT and exists so tests can
    exercise alternative sets (e.g. the paper's printed erratum).
    """
    base = np.ones((NUM_DIRECTIONS, NUM_DIRECTIONS), dtype=bool)
    for t in prohibited:
        base[t.frm, t.to] = False
    tm = TurnModel(
        cg.topology,
        [int(d) for d in cg.direction],
        base,
        class_names=[d.name for d in Direction],
    )
    if apply_phase3:
        release_redundant_turns(tm)
    return tm


def build_down_up_routing(
    topology: Topology,
    method: TreeMethod = TreeMethod.M1,
    rng: RngLike = None,
    tree: Optional[CoordinatedTree] = None,
    apply_phase3: bool = True,
    verify: bool = True,
) -> RoutingFunction:
    """Construct the DOWN/UP routing function for *topology*.

    Parameters
    ----------
    method, rng:
        Coordinated-tree construction variant and its random source
        (only M2 consumes randomness).  Ignored when *tree* is given.
    tree:
        Use a pre-built coordinated tree (lets experiments share one
        tree between DOWN/UP and the baselines, as the paper does when
        comparing "under the same coordinated tree").
    apply_phase3:
        Whether to run the redundant-prohibited-turn release
        (True reproduces the paper; False is the ablation).
    verify:
        Run the Theorem-1 checks (deadlock freedom, connectivity,
        progress) before returning.  Always cheap; disable only inside
        tight benchmark loops that verify separately.
    """
    ct = tree if tree is not None else build_coordinated_tree(
        topology, method=method, rng=rng
    )
    cg = CommunicationGraph.from_tree(ct)
    tm = down_up_turn_model(cg, apply_phase3=apply_phase3)
    routing = build_routing_function(
        tm,
        name="down-up" if apply_phase3 else "down-up/no-release",
        meta={
            "tree_method": method.name if tree is None else "shared",
            "phase3": apply_phase3,
            "releases": len(tm.released_channel_pairs()),
            "tree": ct,
            "communication_graph": cg,
        },
    )
    return verify_routing(routing) if verify else routing

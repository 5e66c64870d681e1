"""L-turn and Left-Right routing — the 2-D turn-model baselines.

The paper compares DOWN/UP against the *L-turn routing* of Jouraku,
Funahashi, Amano and Koibuchi (ICPP 2001 / I-SPAN 2002).  Those papers
route on the *L-R tree*: a BFS spanning tree with preorder/level
coordinates — structurally the same object as the coordinated tree — in
which, crucially, **tree links and cross links share one direction
definition**.  The original prohibited-turn tables are not available in
this environment, so this module implements a documented reconstruction
(see DESIGN.md, "Substitutions") that preserves the properties the
DOWN/UP paper's comparison rests on:

* four direction classes over *all* links — up-left, down-left,
  up-right, down-right — where a channel is "up" when its sink precedes
  its start in ``(level, preorder-x)`` lexicographic order and
  left/right follows the x comparison (horizontal-left folds into UL,
  horizontal-right into DR, keeping each class strictly monotone);
* deadlock freedom by a phase ordering ``UL < DL < UR < DR``: a turn is
  allowed iff it does not decrease the phase.  Any allowed turn cycle
  would have to stay inside one class, and every class strictly
  increases or decreases a coordinate measure — so no turn cycle exists
  in any communication graph (machine-verified per instance);
* connectivity: the tree path is ``UL* -> DR*`` and ``UL -> DR`` is
  allowed;
* a per-node redundant-prohibition release pass (the DOWN/UP paper
  notes its Phase-3 cycle detection is "similar to that in [4]", i.e.
  L-turn performs one as well), run over all six prohibited class pairs
  in a fixed down-flow-first preference order.

Unlike DOWN/UP, the reconstruction cannot treat an up-*tree* channel
differently from an up-*cross* channel — exactly the limitation the
paper identifies — so traffic toward the root is restricted no more
than cross traffic, and root hot spots persist under unfavourable
trees.

``build_left_right_routing`` implements the simpler sibling from the
same papers (two classes: every channel is *left* or *right* by the x
comparison; prohibited: right -> left), included as an extra baseline
and as a sanity anchor for the family.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.coordinated_tree import (
    CoordinatedTree,
    TreeMethod,
    build_coordinated_tree,
)
from repro.routing.release import release_prohibited_turns
from repro.routing.base import RoutingFunction, TurnModel
from repro.routing.table import build_routing_function
from repro.routing.verification import verify_routing
from repro.topology.graph import Topology
from repro.util.rng import RngLike

# the four 2-D classes, in phase order
UL, DL, UR, DR = 0, 1, 2, 3
_LTURN_NAMES = ("UL", "DL", "UR", "DR")

#: Per-node release candidates for the reconstruction, down-flow first.
LTURN_RELEASE_CANDIDATES: Tuple[Tuple[int, int], ...] = (
    (DR, DL),
    (UR, DL),
    (DL, UL),
    (UR, UL),
    (DR, UL),
    (DR, UR),
)


def l_turn_channel_classes(tree: CoordinatedTree) -> List[int]:
    """Classify every channel of ``tree.topology`` into UL/DL/UR/DR.

    Up/down compares ``(Y, X)`` lexicographically (so horizontal
    channels fold into UL or DR); left/right compares ``X``.  Tree and
    cross links are deliberately *not* distinguished — that is the
    L-R-tree trait the DOWN/UP paper contrasts itself against.
    """
    topo = tree.topology
    classes: List[int] = []
    for ch in topo.channels:
        x1, y1 = tree.coordinate(ch.start)
        x2, y2 = tree.coordinate(ch.sink)
        left = x2 < x1
        if (y2, x2) < (y1, x1):  # upward (or horizontal-left)
            classes.append(UL if left else UR)
        else:  # downward (or horizontal-right)
            classes.append(DL if left else DR)
    return classes


def l_turn_turn_model(
    tree: CoordinatedTree, apply_release: bool = True
) -> TurnModel:
    """The L-turn per-switch turn state for *tree*.

    The base matrix allows a turn iff the phase does not decrease
    (``UL < DL < UR < DR``); *apply_release* then releases per-node
    redundant prohibitions via the shared cycle-detection engine.
    """
    allowed = np.zeros((4, 4), dtype=bool)
    for a in range(4):
        for b in range(4):
            allowed[a, b] = a <= b
    tm = TurnModel(
        tree.topology,
        l_turn_channel_classes(tree),
        allowed,
        class_names=_LTURN_NAMES,
    )
    if apply_release:
        release_prohibited_turns(tm, LTURN_RELEASE_CANDIDATES)
    return tm


def build_l_turn_routing(
    topology: Topology,
    method: TreeMethod = TreeMethod.M1,
    rng: RngLike = None,
    tree: Optional[CoordinatedTree] = None,
    apply_release: bool = True,
    verify: bool = True,
) -> RoutingFunction:
    """Construct the L-turn routing function (reconstruction).

    Mirrors :func:`repro.core.downup.build_down_up_routing`: the same
    coordinated tree can be shared via *tree*, ``M1``/``M2``/``M3``
    select the construction variant otherwise, and the result is
    machine-verified deadlock-free and connected.
    """
    ct = tree if tree is not None else build_coordinated_tree(
        topology, method=method, rng=rng
    )
    tm = l_turn_turn_model(ct, apply_release=apply_release)
    routing = build_routing_function(
        tm,
        name="l-turn" if apply_release else "l-turn/no-release",
        meta={
            "tree_method": method.name,
            "release": apply_release,
            "releases": len(tm.released_channel_pairs()),
            "tree": ct,
        },
    )
    return verify_routing(routing) if verify else routing


# ---------------------------------------------------------------------------
# Left-Right routing
# ---------------------------------------------------------------------------

LEFT, RIGHT = 0, 1


def left_right_channel_classes(tree: CoordinatedTree) -> List[int]:
    """Every channel is *left* (sink has smaller x) or *right*."""
    topo = tree.topology
    return [
        LEFT if tree.x[ch.sink] < tree.x[ch.start] else RIGHT
        for ch in topo.channels
    ]


def build_left_right_routing(
    topology: Topology,
    method: TreeMethod = TreeMethod.M1,
    rng: RngLike = None,
    tree: Optional[CoordinatedTree] = None,
    apply_release: bool = True,
    verify: bool = True,
) -> RoutingFunction:
    """Left-Right routing: prohibit every right -> left turn.

    Left channels strictly decrease x and right channels strictly
    increase it, so with right -> left turns prohibited no dependency
    cycle can close; the tree path is left* -> right*, so connectivity
    holds.  The optional release pass relaxes (right -> left) per node.
    """
    ct = tree if tree is not None else build_coordinated_tree(
        topology, method=method, rng=rng
    )
    allowed = np.ones((2, 2), dtype=bool)
    allowed[RIGHT, LEFT] = False
    tm = TurnModel(
        topology,
        left_right_channel_classes(ct),
        allowed,
        class_names=("LEFT", "RIGHT"),
    )
    if apply_release:
        release_prohibited_turns(tm, [(RIGHT, LEFT)])
    routing = build_routing_function(
        tm,
        name="left-right",
        meta={"tree_method": method.name, "tree": ct},
    )
    return verify_routing(routing) if verify else routing

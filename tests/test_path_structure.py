"""Path phase-structure tests — the algorithms' names, verified on paths.

* DOWN/UP: "the packet must go downward cross links then go upward
  cross links" (Section 4.3), and toward-root tree movement happens
  only as an uninterrupted prefix (nothing may turn into ``LU_TREE``).
* up*/down*: zero or more up channels followed by zero or more down
  channels.
* L-turn (reconstruction): the phase order ``UL -> DL -> UR -> DR``
  never decreases (up to per-switch releases, which are exercised
  separately — here we test the no-release variants for the crisp
  property, plus released DOWN/UP for its root-prefix rule which
  releases cannot break).

Paths are enumerated by walking the routing tables over every candidate
at every decision point (all admissible paths, not a random sample), on
small networks where that is exhaustive.
"""

import pytest

from repro.core.communication_graph import CommunicationGraph
from repro.core.coordinated_tree import build_coordinated_tree
from repro.core.directions import Direction
from repro.core.downup import build_down_up_routing
from repro.routing.lturn import DL, DR, UL, UR, build_l_turn_routing
from repro.routing.updown import DOWN, build_up_down_routing
from repro.topology.generator import random_irregular_topology


def iter_paths(routing, src, dst, limit=4000):
    """Yield every admissible shortest channel path src -> dst."""
    stack = [(c, (c,)) for c in routing.first_hops[dst][src]]
    count = 0
    while stack:
        c, path = stack.pop()
        nxt = routing.next_hops[dst][c]
        if not nxt:
            yield list(path)
            count += 1
            if count >= limit:
                return
            continue
        for b in nxt:
            stack.append((b, path + (b,)))


@pytest.fixture(scope="module")
def net():
    topo = random_irregular_topology(18, 4, rng=91)
    tree = build_coordinated_tree(topo)
    return topo, tree


class TestUpDownStructure:
    def test_up_then_down_only(self, net):
        topo, tree = net
        r = build_up_down_routing(topo, tree=tree)
        cls = r.turn_model.channel_class
        for s in range(topo.n):
            for d in range(topo.n):
                if s == d:
                    continue
                for path in iter_paths(r, s, d):
                    seen_down = False
                    for c in path:
                        if cls[c] == DOWN:
                            seen_down = True
                        else:
                            assert not seen_down, (
                                f"up after down on {s}->{d}: {path}"
                            )


class TestLTurnStructure:
    def test_phase_never_decreases_without_release(self, net):
        topo, tree = net
        r = build_l_turn_routing(topo, tree=tree, apply_release=False)
        cls = r.turn_model.channel_class
        order = {UL: 0, DL: 1, UR: 2, DR: 3}
        for s in range(topo.n):
            for d in range(topo.n):
                if s == d:
                    continue
                for path in iter_paths(r, s, d):
                    phases = [order[cls[c]] for c in path]
                    assert phases == sorted(phases), (
                        f"phase decreased on {s}->{d}: {phases}"
                    )


class TestDownUpStructure:
    def test_toward_root_movement_is_a_prefix(self, net):
        """Nothing turns into LU_TREE: all toward-root tree hops form an
        uninterrupted prefix of the path.  Phase-3 releases only touch
        turns into RD_TREE, so this holds for the released routing too."""
        topo, tree = net
        cg = CommunicationGraph.from_tree(tree)
        r = build_down_up_routing(topo, tree=tree)  # with Phase 3
        for s in range(topo.n):
            for d in range(topo.n):
                if s == d:
                    continue
                for path in iter_paths(r, s, d):
                    dirs = [cg.d(c) for c in path]
                    left_prefix = True
                    for dd in dirs:
                        if dd is Direction.LU_TREE:
                            assert left_prefix, (
                                f"re-entered LU_TREE on {s}->{d}: "
                                f"{[x.name for x in dirs]}"
                            )
                        else:
                            left_prefix = False

    def test_no_up_cross_before_down_cross_without_release(self, net):
        """Without Phase 3: after any up-cross hop, no down-cross or
        horizontal hop follows (the strict DOWN-then-UP reading)."""
        topo, tree = net
        cg = CommunicationGraph.from_tree(tree)
        r = build_down_up_routing(topo, tree=tree, apply_phase3=False)
        up_cross = (Direction.LU_CROSS, Direction.RU_CROSS)
        for s in range(topo.n):
            for d in range(topo.n):
                if s == d:
                    continue
                for path in iter_paths(r, s, d):
                    dirs = [cg.d(c) for c in path]
                    seen_up_cross = False
                    for dd in dirs:
                        if dd in up_cross:
                            seen_up_cross = True
                        elif seen_up_cross:
                            assert False, (
                                f"{dd.name} after up-cross on {s}->{d}: "
                                f"{[x.name for x in dirs]}"
                            )

"""Tests for the routing constructions: DOWN/UP, up*/down*, L-turn, Left-Right.

Every builder returns a verified routing function; these tests pin down
the algorithm-specific structure beyond what verification guarantees.
"""

import pytest

from repro.core.communication_graph import CommunicationGraph
from repro.core.coordinated_tree import TreeMethod, build_coordinated_tree
from repro.core.directions import Direction
from repro.core.downup import build_down_up_routing, down_up_turn_model
from repro.routing.lturn import (
    DL,
    DR,
    UL,
    UR,
    build_l_turn_routing,
    build_left_right_routing,
    l_turn_channel_classes,
)
from repro.routing.updown import (
    DOWN,
    UP,
    build_up_down_routing,
    up_down_channel_classes,
)
from repro.routing.verification import verify_routing


class TestDownUp:
    def test_verified_on_samples(self, small_irregular, medium_irregular):
        for topo in (small_irregular, medium_irregular):
            r = build_down_up_routing(topo)
            assert r.name == "down-up"
            verify_routing(r)  # idempotent re-check

    def test_all_tree_methods(self, medium_irregular):
        for m in TreeMethod:
            r = build_down_up_routing(medium_irregular, method=m, rng=3)
            assert r.meta["phase3"] is True

    def test_phase3_toggle(self, medium_irregular):
        with_rel = build_down_up_routing(medium_irregular)
        without = build_down_up_routing(medium_irregular, apply_phase3=False)
        assert with_rel.meta["releases"] >= 0
        assert without.meta["releases"] == 0
        assert without.name == "down-up/no-release"

    def test_phase3_never_lengthens_paths(self, medium_irregular):
        with_rel = build_down_up_routing(medium_irregular)
        without = build_down_up_routing(medium_irregular, apply_phase3=False)
        assert with_rel.average_path_length() <= without.average_path_length() + 1e-12

    def test_tree_path_always_admissible(self, medium_irregular):
        """Theorem 1: path length never exceeds the up-then-down tree path."""
        r = build_down_up_routing(medium_irregular)
        tree = r.meta["tree"]
        for s in range(medium_irregular.n):
            for d in range(medium_irregular.n):
                if s == d:
                    continue
                up = set(tree.path_to_root(s))
                down = tree.path_to_root(d)
                lca = next(v for v in down if v in up)
                tree_len = (
                    tree.path_to_root(s).index(lca)
                    + down.index(lca)
                )
                assert r.path_length(s, d) <= tree_len

    def test_shared_tree_reused(self, medium_irregular):
        ct = build_coordinated_tree(medium_irregular)
        r = build_down_up_routing(medium_irregular, tree=ct)
        assert r.meta["tree"] is ct

    def test_turn_model_prohibits_entering_lu_tree(self, small_cg):
        tm = down_up_turn_model(small_cg, apply_phase3=False)
        m = tm.allowed_matrix(1)
        for d in Direction:
            if d is not Direction.LU_TREE:
                assert not m[int(d), int(Direction.LU_TREE)]

    def test_releases_are_only_the_paper_candidates(self, medium_irregular):
        tree = build_coordinated_tree(medium_irregular)
        cg = CommunicationGraph.from_tree(tree)
        tm = down_up_turn_model(cg, apply_phase3=True)
        for cin, cout in tm.released_channel_pairs():
            assert cg.d(cin) in (Direction.LU_CROSS, Direction.RU_CROSS)
            assert cg.d(cout) is Direction.RD_TREE


class TestUpDown:
    def test_classes_partition(self, medium_irregular):
        cls = up_down_channel_classes(medium_irregular)
        for ch in medium_irregular.channels:
            assert cls[ch.cid] != cls[ch.reverse_cid]

    def test_up_means_toward_root(self, medium_irregular):
        tree = build_coordinated_tree(medium_irregular)
        cls = up_down_channel_classes(medium_irregular, tree)
        for ch in medium_irregular.channels:
            if tree.y[ch.sink] < tree.y[ch.start]:
                assert cls[ch.cid] == UP
            elif tree.y[ch.sink] > tree.y[ch.start]:
                assert cls[ch.cid] == DOWN
            else:  # same level: smaller id is the 'up' end
                assert (cls[ch.cid] == UP) == (ch.sink < ch.start)

    def test_bfs_variant_verified(self, medium_irregular):
        r = build_up_down_routing(medium_irregular)
        assert r.name == "up-down/bfs"

    def test_dfs_variant_verified(self, medium_irregular):
        r = build_up_down_routing(medium_irregular, variant="dfs")
        assert r.name == "up-down/dfs"

    def test_unknown_variant_rejected(self, medium_irregular):
        with pytest.raises(ValueError, match="variant"):
            build_up_down_routing(medium_irregular, variant="xyz")

    def test_path_structure_up_then_down(self, small_irregular):
        """No admissible dependency goes down -> up."""
        r = build_up_down_routing(small_irregular)
        tm = r.turn_model
        from repro.routing.channel_graph import dependency_adjacency

        adj = dependency_adjacency(tm)
        for a, outs in enumerate(adj):
            for b in outs:
                assert not (
                    tm.channel_class[a] == DOWN and tm.channel_class[b] == UP
                )


class TestLTurn:
    def test_classes_cover_all_channels(self, medium_irregular):
        tree = build_coordinated_tree(medium_irregular)
        cls = l_turn_channel_classes(tree)
        assert set(cls) <= {UL, DL, UR, DR}
        for ch in medium_irregular.channels:
            # opposite channels take opposite classes
            assert {cls[ch.cid], cls[ch.reverse_cid]} in (
                {UL, DR},
                {UR, DL},
            )

    def test_tree_channels_are_ul_dr(self, medium_irregular):
        tree = build_coordinated_tree(medium_irregular)
        cls = l_turn_channel_classes(tree)
        for v in range(medium_irregular.n):
            p = tree.parent[v]
            if p is not None:
                assert cls[medium_irregular.channel_id(v, p)] == UL
                assert cls[medium_irregular.channel_id(p, v)] == DR

    def test_verified_on_samples(self, small_irregular, medium_irregular):
        for topo in (small_irregular, medium_irregular):
            r = build_l_turn_routing(topo)
            assert r.name == "l-turn"

    def test_release_toggle(self, medium_irregular):
        with_rel = build_l_turn_routing(medium_irregular)
        without = build_l_turn_routing(medium_irregular, apply_release=False)
        assert with_rel.meta["releases"] > 0
        assert without.meta["releases"] == 0
        assert (
            with_rel.average_path_length()
            <= without.average_path_length() + 1e-12
        )

    def test_tree_and_cross_links_share_classes(self, medium_irregular):
        """The L-R-tree trait the paper criticises: an up-tree channel and
        an up-left cross channel are indistinguishable to L-turn."""
        tree = build_coordinated_tree(medium_irregular)
        cls = l_turn_channel_classes(tree)
        cg = CommunicationGraph.from_tree(tree)
        lu_tree = cg.channels_with_direction(Direction.LU_TREE)
        lu_cross = cg.channels_with_direction(Direction.LU_CROSS)
        if lu_cross:  # random sample almost surely has some
            assert {cls[c] for c in lu_tree} == {UL}
            assert {cls[c] for c in lu_cross} == {UL}


class TestLeftRight:
    def test_verified(self, medium_irregular):
        r = build_left_right_routing(medium_irregular)
        assert r.name == "left-right"

    def test_no_right_to_left_dependency_without_release(self, small_irregular):
        r = build_left_right_routing(small_irregular, apply_release=False)
        from repro.routing.channel_graph import dependency_adjacency
        from repro.routing.lturn import LEFT, RIGHT

        tm = r.turn_model
        adj = dependency_adjacency(tm)
        for a, outs in enumerate(adj):
            for b in outs:
                assert not (
                    tm.channel_class[a] == RIGHT and tm.channel_class[b] == LEFT
                )


class TestCrossAlgorithmComparisons:
    def test_all_algorithms_on_shared_tree(self, medium_irregular):
        ct = build_coordinated_tree(medium_irregular)
        rs = [
            build_down_up_routing(medium_irregular, tree=ct),
            build_l_turn_routing(medium_irregular, tree=ct),
            build_up_down_routing(medium_irregular, tree=ct),
            build_left_right_routing(medium_irregular, tree=ct),
        ]
        for r in rs:
            assert r.path_length(0, medium_irregular.n - 1) >= 1

    def test_path_lengths_at_least_graph_distance(self, small_irregular):
        import collections

        # plain BFS distances on the topology
        def bfs_dist(src):
            dist = {src: 0}
            q = collections.deque([src])
            while q:
                v = q.popleft()
                for w in small_irregular.neighbors(v):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        q.append(w)
            return dist

        r = build_down_up_routing(small_irregular)
        for s in range(small_irregular.n):
            d0 = bfs_dist(s)
            for d in range(small_irregular.n):
                if s != d:
                    assert r.path_length(s, d) >= d0[d]

"""Tests for coordinated-tree construction (Definition 2, Section 4.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinated_tree import TreeMethod, build_coordinated_tree
from repro.topology.generator import random_irregular_topology
from repro.topology.graph import Topology


class TestM1Construction:
    def test_line(self, line3):
        ct = build_coordinated_tree(line3)
        assert ct.root == 0
        assert ct.parent == (None, 0, 1)
        assert ct.x == (0, 1, 2)
        assert ct.y == (0, 1, 2)

    def test_star_children_in_id_order(self):
        t = Topology(4, [(0, 3), (0, 1), (0, 2)])
        ct = build_coordinated_tree(t)
        assert ct.children[0] == (1, 2, 3)
        assert ct.x == (0, 1, 2, 3)
        assert ct.y == (0, 1, 1, 1)

    def test_bfs_tree_levels_are_graph_distance(self, medium_irregular):
        """BFS spanning tree: Y(v) equals the hop distance from the root."""
        ct = build_coordinated_tree(medium_irregular)
        # plain BFS distances
        from collections import deque

        dist = {0: 0}
        q = deque([0])
        while q:
            v = q.popleft()
            for w in medium_irregular.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        assert all(ct.y[v] == dist[v] for v in range(medium_irregular.n))

    def test_cross_links_span_at_most_one_level(self, medium_irregular):
        """BFS property Definition 5 relies on: |Y(u) - Y(v)| <= 1."""
        ct = build_coordinated_tree(medium_irregular)
        for u, v in ct.cross_links():
            assert abs(ct.y[u] - ct.y[v]) <= 1

    def test_preorder_parents_precede_children(self, medium_irregular):
        ct = build_coordinated_tree(medium_irregular)
        for v in range(ct.n):
            p = ct.parent[v]
            if p is not None:
                assert ct.x[p] < ct.x[v]

    def test_preorder_subtrees_are_contiguous(self, medium_irregular):
        """x ranks of each subtree form a contiguous block (true preorder)."""
        ct = build_coordinated_tree(medium_irregular)

        def subtree(v):
            out = [v]
            for c in ct.children[v]:
                out.extend(subtree(c))
            return out

        for v in range(ct.n):
            xs = sorted(ct.x[u] for u in subtree(v))
            assert xs == list(range(xs[0], xs[0] + len(xs)))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            build_coordinated_tree(Topology(4, [(0, 1), (2, 3)]))

    def test_custom_root(self, medium_irregular):
        ct = build_coordinated_tree(medium_irregular, root=5)
        assert ct.root == 5 and ct.y[5] == 0 and ct.x[5] == 0

    def test_bad_root_rejected(self, line3):
        with pytest.raises(ValueError, match="root"):
            build_coordinated_tree(line3, root=99)


class TestMethods:
    def test_m3_reverses_sibling_order(self):
        t = Topology(4, [(0, 1), (0, 2), (0, 3)])
        m1 = build_coordinated_tree(t, TreeMethod.M1)
        m3 = build_coordinated_tree(t, TreeMethod.M3)
        assert m1.children[0] == (1, 2, 3)
        assert m3.children[0] == (3, 2, 1)
        assert m3.x[3] == 1 and m3.x[1] == 3

    def test_m2_deterministic_given_seed(self, medium_irregular):
        a = build_coordinated_tree(medium_irregular, TreeMethod.M2, rng=5)
        b = build_coordinated_tree(medium_irregular, TreeMethod.M2, rng=5)
        assert a.x == b.x and a.parent == b.parent

    def test_m2_varies_with_seed(self, medium_irregular):
        xs = {
            build_coordinated_tree(medium_irregular, TreeMethod.M2, rng=s).x
            for s in range(6)
        }
        assert len(xs) > 1

    def test_methods_share_root_level_zero(self, medium_irregular):
        for m in TreeMethod:
            ct = build_coordinated_tree(medium_irregular, m, rng=0)
            assert ct.y[ct.root] == 0

    def test_independent_bfs_method(self, medium_irregular):
        ct = build_coordinated_tree(
            medium_irregular, TreeMethod.M1, bfs_method=TreeMethod.M3
        )
        ct.validate()


class TestQueries:
    def test_leaves(self):
        t = Topology(4, [(0, 1), (1, 2), (1, 3)])
        ct = build_coordinated_tree(t)
        assert sorted(ct.leaves()) == [2, 3]

    def test_level_nodes_and_depth(self):
        t = Topology(4, [(0, 1), (1, 2), (1, 3)])
        ct = build_coordinated_tree(t)
        assert ct.level_nodes(0) == [0]
        assert ct.level_nodes(2) == [2, 3]
        assert ct.depth == 2

    def test_path_to_root(self):
        t = Topology(4, [(0, 1), (1, 2), (2, 3)])
        ct = build_coordinated_tree(t)
        assert ct.path_to_root(3) == [3, 2, 1, 0]

    def test_tree_and_cross_links_partition(self, medium_irregular):
        ct = build_coordinated_tree(medium_irregular)
        tl, cl = ct.tree_links(), ct.cross_links()
        assert tl | cl == set(medium_irregular.links)
        assert not (tl & cl)
        assert len(tl) == medium_irregular.n - 1


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 40),
    method=st.sampled_from(list(TreeMethod)),
)
def test_tree_invariants_hold_for_random_topologies(seed, n, method):
    topo = random_irregular_topology(n, 4, rng=seed)
    ct = build_coordinated_tree(topo, method, rng=seed)
    ct.validate()  # full Definition-2 invariant bundle
    assert sorted(ct.x) == list(range(n))
    assert len(ct.tree_links()) == n - 1

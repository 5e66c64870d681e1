"""Tests for the channel dependency graph and turn-restricted BFS."""

import numpy as np

from repro.routing.base import TurnModel
from repro.routing.channel_graph import (
    dependency_adjacency,
    find_cycle,
    find_turn_cycle,
    reachable,
    shortest_path_dags,
    shortest_path_tables,
    would_close_cycle,
)
from repro.topology.graph import Topology


def unrestricted(topo):
    return TurnModel(topo, [0] * topo.num_channels, np.ones((1, 1), dtype=bool))


def restricted(topo, cls, allowed):
    return TurnModel(topo, cls, np.asarray(allowed, dtype=bool))


class TestDependencyAdjacency:
    def test_line_dependencies(self, line3):
        adj = dependency_adjacency(unrestricted(line3))
        c01, c12 = line3.channel_id(0, 1), line3.channel_id(1, 2)
        c21, c10 = line3.channel_id(2, 1), line3.channel_id(1, 0)
        assert adj[c01] == [c12]  # U-turn back to 0 excluded
        assert adj[c12] == []  # dead end at 2
        assert adj[c21] == [c10]

    def test_prohibition_removes_edge(self, line3):
        tm = unrestricted(line3)
        tm.set_turn(1, 0, 0, False)
        adj = dependency_adjacency(tm)
        assert adj[line3.channel_id(0, 1)] == []


class TestFindCycle:
    def test_acyclic(self):
        assert find_cycle([[1], [2], []]) is None

    def test_self_loop(self):
        assert find_cycle([[0]]) == [0]

    def test_simple_cycle_returned_in_order(self):
        cyc = find_cycle([[1], [2], [0]])
        assert cyc is not None and len(cyc) == 3
        assert sorted(cyc) == [0, 1, 2]

    def test_cycle_in_second_component(self):
        cyc = find_cycle([[], [2], [3], [1]])
        assert cyc is not None and sorted(cyc) == [1, 2, 3]

    def test_ring_turn_cycle(self, ring6):
        assert find_turn_cycle(unrestricted(ring6)) is not None

    def test_tree_never_cycles(self):
        topo = Topology(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        assert find_turn_cycle(unrestricted(topo)) is None

    def test_up_down_breaks_ring(self, ring6):
        # classes: 0 = toward smaller id ('up'), 1 = 'down'
        cls = [
            0 if ring6.channel(c).sink < ring6.channel(c).start else 1
            for c in range(ring6.num_channels)
        ]
        allowed = [[True, True], [False, True]]
        assert find_turn_cycle(restricted(ring6, cls, allowed)) is None


class TestReachability:
    def test_reachable_chain(self):
        adj = [[1], [2], []]
        assert reachable(adj, 0, 2)
        assert not reachable(adj, 2, 0)

    def test_self_reachability_requires_cycle(self):
        assert not reachable([[1], []], 0, 0)
        assert reachable([[1], [0]], 0, 0)

    def test_would_close_cycle(self, ring6):
        tm = unrestricted(ring6)
        adj = dependency_adjacency(tm)
        # ring is fully cyclic: adding any dependency back closes a loop
        c = ring6.channel_id(0, 1)
        n = ring6.channel_id(1, 2)
        assert would_close_cycle(adj, c, n)

    def test_would_not_close_on_tree(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        tm = unrestricted(topo)
        tm.set_turn(1, 0, 0, False)  # globally forbid everything at 1
        adj = dependency_adjacency(tm)
        assert not would_close_cycle(
            adj, topo.channel_id(0, 1), topo.channel_id(1, 2)
        )


class TestShortestPaths:
    def test_line_distances(self, line3):
        dist, nh, fh = shortest_path_dags(unrestricted(line3), 2)
        assert dist[line3.channel_id(1, 2)] == 0
        assert dist[line3.channel_id(0, 1)] == 1
        assert fh[0] == (line3.channel_id(0, 1),)
        assert fh[2] == ()
        assert nh[line3.channel_id(0, 1)] == (line3.channel_id(1, 2),)

    def test_unreachable_marked(self, line3):
        tm = unrestricted(line3)
        tm.set_turn(1, 0, 0, False)
        dist, _nh, fh = shortest_path_dags(tm, 2)
        assert dist[line3.channel_id(0, 1)] == 2**31 - 1
        assert fh[0] == ()

    def test_multiple_minimal_first_hops(self):
        # diamond: 0-1-3 and 0-2-3 both length 2
        topo = Topology(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        _dist, _nh, fh = shortest_path_dags(unrestricted(topo), 3)
        assert set(fh[0]) == {topo.channel_id(0, 1), topo.channel_id(0, 2)}

    def test_distances_decrease_along_next_hops(self, medium_irregular):
        tm = unrestricted(medium_irregular)
        dist, nh, _fh = shortest_path_dags(tm, 0)
        for c, opts in enumerate(nh):
            for b in opts:
                assert dist[b] == dist[c] - 1

    def test_restriction_lengthens_paths(self, ring6):
        free_dist, _n, free_fh = shortest_path_dags(unrestricted(ring6), 3)
        cls = [
            0 if ring6.channel(c).sink < ring6.channel(c).start else 1
            for c in range(ring6.num_channels)
        ]
        tm = restricted(ring6, cls, [[True, True], [False, True]])
        _d, _n2, fh = shortest_path_dags(tm, 3)
        free_len = 1 + min(free_dist[c] for c in free_fh[0])
        # up*/down* on a ring cannot be shorter than unrestricted
        assert all(fh[s] for s in range(6) if s != 3)  # still connected


def _tables_match_reference(tm):
    dist, sets, next_idx, first_idx = shortest_path_tables(tm)
    n, n_ch = tm.topology.n, tm.topology.num_channels
    assert dist.dtype == np.int32 and dist.shape == (n, n_ch)
    assert next_idx.shape == (n, n_ch) and first_idx.shape == (n, n)
    # distinct sets, the empty one first, numbered in first-seen order
    assert sets[0] == () and len(set(sets)) == len(sets)
    seen = list(dict.fromkeys([0, *next_idx.ravel(), *first_idx.ravel()]))
    assert seen == list(range(len(sets)))
    for d in range(n):
        ref_dist, ref_nh, ref_fh = shortest_path_dags(tm, d)
        assert dist[d].tolist() == ref_dist
        assert [sets[k] for k in next_idx[d]] == ref_nh
        assert [sets[k] for k in first_idx[d]] == ref_fh


class TestAllDestinationTables:
    """The array BFS over every destination against the per-destination
    loop, which stays the reference."""

    def test_irregular_under_each_paper_turn_model(self, medium_irregular):
        from repro.core.downup import build_down_up_routing
        from repro.routing.lturn import build_l_turn_routing
        from repro.routing.updown import build_up_down_routing

        for build in (build_down_up_routing, build_l_turn_routing, build_up_down_routing):
            _tables_match_reference(build(medium_irregular).turn_model)

    def test_unreachable_states_and_restricted_ring(self, line3, ring6):
        tm = unrestricted(line3)
        tm.set_turn(1, 0, 0, False)
        _tables_match_reference(tm)
        cls = [
            0 if ring6.channel(c).sink < ring6.channel(c).start else 1
            for c in range(ring6.num_channels)
        ]
        _tables_match_reference(restricted(ring6, cls, [[True, True], [False, True]]))

    def test_high_degree_switch(self):
        # 69 ports at the hub: candidate masks no longer fit in int64
        from repro.routing.table import build_routing_function
        from repro.routing.verification import verify_routing
        from repro.topology.zoo import star

        tm = unrestricted(star(70))
        _tables_match_reference(tm)
        verify_routing(build_routing_function(tm, "star"))

    def test_single_switch(self):
        dist, sets, next_idx, first_idx = shortest_path_tables(
            unrestricted(Topology(1, []))
        )
        assert dist.shape == (1, 0) and next_idx.shape == (1, 0)
        assert sets == ((),)
        assert first_idx.tolist() == [[0]]

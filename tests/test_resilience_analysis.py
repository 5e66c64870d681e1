"""Edge-case coverage for the resilience analysis and the bridge finder."""

from __future__ import annotations

import pytest

from repro.analysis import resilience
from repro.analysis.resilience import degrade_topology, resilience_study
from repro.core.downup import build_down_up_routing
from repro.topology.generator import random_irregular_topology
from repro.topology.graph import Topology
from repro.topology.validation import find_bridges
from repro.util.rng import as_generator


def naive_bridges(topology: Topology) -> set:
    """O(E^2) reference: a link is a bridge iff removing it cuts the graph."""

    def component_count(links):
        adj = [[] for _ in range(topology.n)]
        for u, v in links:
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * topology.n
        comps = 0
        for s in range(topology.n):
            if seen[s]:
                continue
            comps += 1
            stack = [s]
            seen[s] = True
            while stack:
                x = stack.pop()
                for w in adj[x]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
        return comps

    base = component_count(topology.links)
    return {
        l
        for l in topology.links
        if component_count([x for x in topology.links if x != l]) > base
    }


class TestFindBridges:
    def test_line_is_all_bridges(self, line3):
        assert find_bridges(line3) == {(0, 1), (1, 2)}

    def test_ring_has_no_bridges(self, ring6):
        assert find_bridges(ring6) == set()

    def test_tree_is_all_bridges(self):
        # a star plus a path: every link of any tree is a bridge
        tree = Topology(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
        assert find_bridges(tree) == set(tree.links)

    def test_bridge_between_two_cycles(self):
        # two triangles joined by one link: only the joint is a bridge
        topo = Topology(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        )
        assert find_bridges(topo) == {(2, 3)}

    def test_disconnected_components_handled_per_component(self):
        # bridges are well defined per component; isolated node 4 is fine
        topo = Topology(5, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert find_bridges(topo) == {(2, 3)}

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_on_random_irregular(self, seed):
        topo = random_irregular_topology(n=24, ports=4, rng=seed)
        assert find_bridges(topo) == naive_bridges(topo)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_on_sparse_random(self, seed):
        # sparse graphs (n-1..n+2 links) are bridge-heavy
        gen = as_generator(100 + seed)
        n = 12
        links = {(i, int(gen.integers(i))) for i in range(1, n)}
        links = {(min(a, b), max(a, b)) for a, b in links}
        while len(links) < n + 2:
            a, b = int(gen.integers(n)), int(gen.integers(n))
            if a != b:
                links.add((min(a, b), max(a, b)))
        topo = Topology(n, sorted(links))
        assert find_bridges(topo) == naive_bridges(topo)

    def test_resilience_delegate_is_the_same_finder(self):
        # the resilience study and the fault schedule share one finder
        assert resilience.find_bridges is find_bridges


class TestDegradeTopology:
    def test_zero_failures_is_identity(self, ring6):
        assert degrade_topology(ring6, 0, rng=1) == ring6

    def test_never_disconnects(self):
        topo = random_irregular_topology(n=16, ports=4, rng=3)
        degraded = degrade_topology(topo, 6, rng=5)
        assert degraded.num_links == topo.num_links - 6
        assert degraded.is_connected()

    def test_all_bridges_graph_refuses_any_failure(self, line3):
        with pytest.raises(ValueError, match="removable"):
            degrade_topology(line3, 1, rng=0)

    def test_rng_reproducibility(self):
        topo = random_irregular_topology(n=16, ports=4, rng=3)
        a = degrade_topology(topo, 4, rng=11)
        b = degrade_topology(topo, 4, rng=11)
        c = degrade_topology(topo, 4, rng=12)
        assert a == b
        # a different seed picks a different victim set (with these
        # parameters; equality would mean the rng is being ignored)
        assert a != c


class TestResilienceStudy:
    def test_zero_failure_study_matches_pristine_routing(self):
        topo = random_irregular_topology(n=12, ports=4, rng=2)
        study = resilience_study(
            topo, {"down-up": build_down_up_routing}, [0], rng=0
        )
        (point,) = study["down-up"]
        assert point.failures == 0
        pristine = build_down_up_routing(topo)
        assert point.mean_path == pytest.approx(
            pristine.average_path_length()
        )

    def test_study_is_seed_reproducible(self):
        topo = random_irregular_topology(n=12, ports=4, rng=2)
        run = lambda: resilience_study(
            topo, {"down-up": build_down_up_routing}, [0, 2], rng=9
        )
        a, b = run(), run()
        assert a == b

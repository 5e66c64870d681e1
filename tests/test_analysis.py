"""Tests for the static path analysis."""

import numpy as np
import pytest

from repro.analysis.static_load import (
    expected_channel_load,
    static_utilization_report,
)
from repro.core.coordinated_tree import build_coordinated_tree
from repro.core.downup import build_down_up_routing
from repro.routing.lturn import build_l_turn_routing
from repro.routing.updown import build_up_down_routing
from repro.topology.graph import Topology
from tests.helpers import fixed_path_routing


def loop_channel_load(routing):
    """The per-destination walk :func:`expected_channel_load` replaced:
    the reference its array passes must match bit for bit."""
    n, n_ch = routing.topology.n, routing.topology.num_channels
    total = np.zeros(n_ch, dtype=float)
    for d in range(n):
        dist_row = routing.dist[d]
        nh, fh = routing.next_hops[d], routing.first_hops[d]
        load = np.zeros(n_ch, dtype=float)
        for s in range(n):
            if s != d and fh[s]:
                for c in fh[s]:
                    load[c] += 1.0 / len(fh[s])
        finite = [c for c in range(n_ch) if dist_row[c] != routing.UNREACHABLE]
        finite.sort(key=lambda c: -int(dist_row[c]))
        for c in finite:
            if load[c] != 0.0 and dist_row[c] != 0:
                share = load[c] / len(nh[c])
                for b in nh[c]:
                    load[b] += share
        total += load
    return total


class TestExpectedLoad:
    def test_line_loads(self, line3):
        routing = build_up_down_routing(line3)
        load = expected_channel_load(routing)
        # pairs crossing <0,1>: (0,1) and (0,2); crossing <1,2>: (0,2),(1,2)
        assert load[line3.channel_id(0, 1)] == pytest.approx(2.0)
        assert load[line3.channel_id(1, 2)] == pytest.approx(2.0)
        assert load[line3.channel_id(1, 0)] == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "builder", [build_down_up_routing, build_l_turn_routing, build_up_down_routing]
    )
    def test_matches_the_per_destination_walk(self, builder, medium_irregular):
        routing = builder(medium_irregular)
        for r in (routing, routing.deterministic(rng=3)):
            assert expected_channel_load(r).tobytes() == loop_channel_load(r).tobytes()

    def test_total_equals_sum_of_path_lengths(self, small_irregular):
        routing = build_down_up_routing(small_irregular)
        load = expected_channel_load(routing)
        n = small_irregular.n
        expected = sum(
            routing.path_length(s, d)
            for s in range(n)
            for d in range(n)
            if s != d
        )
        assert load.sum() == pytest.approx(expected)

    def test_adaptive_split_is_fractional(self):
        # diamond: two minimal paths 0->3 split the unit load
        topo = Topology(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        routing = fixed_path_routing(topo, {(0, 3): [0, 1, 3]})
        # hand-built single path: full unit on that path
        load = expected_channel_load(routing)
        assert load[topo.channel_id(0, 1)] == pytest.approx(1.0)
        assert load[topo.channel_id(0, 2)] == 0.0

    def test_diamond_splits_half_half(self):
        topo = Topology(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        routing = build_up_down_routing(topo)
        load = expected_channel_load(routing)
        # 0 -> 3 has two minimal admissible paths; each branch carries 1/2
        # of that pair (plus whole units from other pairs)
        a = load[topo.channel_id(0, 1)]
        b = load[topo.channel_id(0, 2)]
        assert a + b >= 1.0
        assert a == pytest.approx(b)

    def test_loads_nonnegative(self, medium_irregular):
        routing = build_l_turn_routing(medium_irregular)
        assert (expected_channel_load(routing) >= 0).all()


class TestStaticReport:
    def test_report_keys_and_normalisation(self, medium_irregular):
        routing = build_down_up_routing(medium_irregular)
        tree = routing.meta["tree"]
        rep = static_utilization_report(routing, tree)
        assert set(rep) == {
            "node_utilization",
            "traffic_load",
            "hot_spot_degree",
            "leaves_utilization",
        }
        assert 0 <= rep["hot_spot_degree"] <= 100

    def test_down_up_beats_l_turn_on_hot_spots_static(self):
        """The paper's headline, statically, averaged over samples."""
        from repro.topology.generator import random_irregular_topology

        wins = 0
        for seed in range(5):
            topo = random_irregular_topology(32, 4, rng=seed)
            tree = build_coordinated_tree(topo)
            du = build_down_up_routing(topo, tree=tree)
            lt = build_l_turn_routing(topo, tree=tree)
            du_h = static_utilization_report(du, tree)["hot_spot_degree"]
            lt_h = static_utilization_report(lt, tree)["hot_spot_degree"]
            wins += du_h <= lt_h
        assert wins >= 4, "DOWN/UP should usually have fewer hot spots"

"""Tests for extension features: deterministic mode, new traffic
patterns, and the link-failure resilience study."""

import numpy as np
import pytest

from repro.analysis.resilience import degrade_topology, resilience_study
from repro.core.downup import build_down_up_routing
from repro.routing.updown import build_up_down_routing
from repro.routing.verification import verify_routing
from repro.simulator import SimulationConfig, simulate
from repro.simulator.traffic import LocalTraffic, TornadoTraffic
from repro.topology import zoo
from repro.topology.generator import random_irregular_topology
from repro.topology.graph import Topology
from repro.topology.validation import find_bridges


class TestDeterministicMode:
    def test_single_candidate_everywhere(self, medium_irregular):
        det = build_down_up_routing(medium_irregular).deterministic()
        for d in range(medium_irregular.n):
            for opts in det.first_hops[d]:
                assert len(opts) <= 1
            for opts in det.next_hops[d]:
                assert len(opts) <= 1

    def test_still_verified(self, medium_irregular):
        det = build_down_up_routing(medium_irregular).deterministic()
        verify_routing(det)

    def test_path_lengths_unchanged(self, small_irregular):
        ada = build_down_up_routing(small_irregular)
        det = ada.deterministic(rng=3)
        for s in range(small_irregular.n):
            for d in range(small_irregular.n):
                if s != d:
                    assert det.path_length(s, d) == ada.path_length(s, d)

    def test_seeded_choice_deterministic(self, small_irregular):
        ada = build_down_up_routing(small_irregular)
        a = ada.deterministic(rng=5)
        b = ada.deterministic(rng=5)
        assert a.first_hops == b.first_hops

    def test_name_and_meta(self, small_irregular):
        det = build_down_up_routing(small_irregular).deterministic()
        assert det.name.endswith("/deterministic")
        assert det.meta["deterministic"] is True

    def test_adaptive_beats_deterministic_at_saturation(self):
        """Adaptivity should help (or at least not hurt) throughput."""
        topo = random_irregular_topology(24, 4, rng=33)
        ada = build_down_up_routing(topo)
        det = ada.deterministic(rng=1)
        cfg = SimulationConfig(
            packet_length=16, injection_rate=1.0,
            warmup_clocks=800, measure_clocks=3_000, seed=2,
        )
        s_ada = simulate(ada, cfg)
        s_det = simulate(det, cfg)
        assert s_ada.accepted_traffic >= 0.9 * s_det.accepted_traffic


class TestNewTrafficPatterns:
    def test_tornado_fixed_offset(self):
        t = TornadoTraffic(8)
        rng = np.random.default_rng(0)
        assert t.destination(0, rng) == 3
        assert t.destination(7, rng) == (7 + 3) % 8

    def test_tornado_never_self(self):
        rng = np.random.default_rng(1)
        for n in (3, 4, 5, 9):
            t = TornadoTraffic(n)
            for src in range(n):
                assert t.destination(src, rng) != src

    def test_tornado_minimum(self):
        with pytest.raises(ValueError):
            TornadoTraffic(2)

    def test_local_within_radius(self):
        t = LocalTraffic(20, radius=3)
        rng = np.random.default_rng(2)
        for _ in range(300):
            d = t.destination(10, rng)
            assert d != 10
            assert min((d - 10) % 20, (10 - d) % 20) <= 3

    def test_local_radius_clamped(self):
        t = LocalTraffic(4, radius=10)
        assert t.radius == 1

    def test_local_validation(self):
        with pytest.raises(ValueError):
            LocalTraffic(1)
        with pytest.raises(ValueError):
            LocalTraffic(8, radius=0)

    def test_patterns_drive_simulation(self):
        topo = random_irregular_topology(12, 4, rng=4)
        r = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=8, injection_rate=0.1,
            warmup_clocks=200, measure_clocks=800, seed=3,
        )
        for traffic in (TornadoTraffic(12), LocalTraffic(12, 2)):
            stats = simulate(r, cfg, traffic)
            assert stats.accepted_traffic > 0


class TestBridges:
    def test_line_all_bridges(self):
        t = zoo.line(4)
        assert find_bridges(t) == set(t.links)

    def test_ring_no_bridges(self):
        assert find_bridges(zoo.ring(5)) == set()

    def test_mixed(self):
        # triangle 0-1-2 plus pendant 3 on 2
        t = Topology(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert find_bridges(t) == {(2, 3)}


class TestDegrade:
    def test_stays_connected(self):
        topo = random_irregular_topology(24, 4, rng=6)
        degraded = degrade_topology(topo, 5, rng=1)
        assert degraded.is_connected()
        assert degraded.num_links == topo.num_links - 5

    def test_deterministic(self):
        topo = random_irregular_topology(24, 4, rng=6)
        a = degrade_topology(topo, 3, rng=9)
        b = degrade_topology(topo, 3, rng=9)
        assert a == b

    def test_tree_cannot_degrade(self):
        with pytest.raises(ValueError, match="removable"):
            degrade_topology(zoo.line(5), 1, rng=0)

    def test_zero_failures_identity(self):
        topo = random_irregular_topology(16, 4, rng=2)
        assert degrade_topology(topo, 0, rng=0) == topo


class TestResilienceStudy:
    def test_study_shape_and_monotone_links(self):
        topo = random_irregular_topology(20, 4, rng=11)
        study = resilience_study(
            topo,
            {
                "down-up": build_down_up_routing,
                "up-down": build_up_down_routing,
            },
            failure_counts=[0, 2],
            rng=4,
        )
        assert set(study) == {"down-up", "up-down"}
        for points in study.values():
            assert [p.failures for p in points] == [0, 2]
            # damage can only lengthen shortest paths
            assert points[1].mean_path >= points[0].mean_path - 1e-9

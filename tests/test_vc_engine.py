"""Tests for the virtual-channel engine and Duato two-layer routing."""

import pytest

from repro.core.downup import build_down_up_routing
from repro.routing.duato import (
    DuatoRouting,
    build_duato_routing,
    build_fully_adaptive_minimal,
)
from repro.routing.updown import build_up_down_routing
from repro.simulator import (
    DeadlockDetected,
    SimulationConfig,
    VirtualChannelSimulator,
    simulate,
    simulate_vc,
)
from repro.simulator.packet import Worm
from repro.topology import zoo
from repro.topology.generator import random_irregular_topology
from tests.helpers import FixedDestinationTraffic, fixed_path_routing


def drive_single(topo, routing, src, dst, length, num_vcs=2, clocks=300):
    cfg = SimulationConfig(
        packet_length=length, injection_rate=0.0,
        warmup_clocks=0, measure_clocks=clocks, seed=0,
    )
    sim = VirtualChannelSimulator(routing, cfg, num_vcs=num_vcs)
    sim.enable_invariant_checks()
    sim.stats.active = True
    w = Worm(0, src, dst, length, 0)
    sim.queues[src].append(w)
    for _ in range(clocks):
        sim.step()
        sim.stats.window_clocks += 1
        if w.t_done is not None:
            break
    return sim, w


class TestBasics:
    def test_num_vcs_validation(self):
        topo = zoo.line(3)
        r = build_up_down_routing(topo)
        cfg = SimulationConfig(packet_length=4)
        with pytest.raises(ValueError, match="num_vcs"):
            VirtualChannelSimulator(r, cfg, num_vcs=0)

    def test_duato_needs_two_vcs(self):
        topo = zoo.mesh(3, 3)
        d = build_duato_routing(topo)
        cfg = SimulationConfig(packet_length=4)
        with pytest.raises(ValueError, match="at least 2"):
            VirtualChannelSimulator(d, cfg, num_vcs=1)

    def test_vc_id_roundtrip(self):
        topo = zoo.line(4)
        sim = VirtualChannelSimulator(
            build_up_down_routing(topo), SimulationConfig(packet_length=4),
            num_vcs=3,
        )
        for cid in range(topo.num_channels):
            for v in range(3):
                assert sim.phys(sim.vcid(cid, v)) == cid

    @pytest.mark.parametrize("vcs", [1, 2, 4])
    def test_unloaded_latency_matches_base_engine(self, vcs):
        """With no contention, VCs change nothing: 3 clocks/hop header."""
        topo = zoo.line(4)
        r = build_up_down_routing(topo)
        _sim, w = drive_single(topo, r, 0, 3, length=8, num_vcs=vcs)
        assert w.t_head_arrival == 9  # 3 hops * 3 clocks
        assert w.t_done == 9 + 7


class TestLinkMultiplexing:
    def test_link_bandwidth_shared(self):
        """Two worms on different VCs of one link sum to <= 1 flit/clock."""
        topo = zoo.line(3)
        routing = fixed_path_routing(
            topo, {(0, 2): [0, 1, 2], (0, 1): [0, 1]}
        )
        cfg = SimulationConfig(
            packet_length=40, injection_rate=0.0,
            warmup_clocks=0, measure_clocks=400, seed=0,
        )
        sim = VirtualChannelSimulator(routing, cfg, num_vcs=2)
        sim.stats.active = True
        a = Worm(0, 0, 2, 40, 0)
        b = Worm(1, 0, 1, 40, 0)
        sim.queues[0].extend([a, b])
        for _ in range(400):
            sim.step()
            sim.stats.window_clocks += 1
        # both complete; total flits over channel <0,1> = 80, at <= 1/clock
        assert a.t_done is not None and b.t_done is not None
        stats = sim.stats.finalize(0)
        assert stats.channel_flits[topo.channel_id(0, 1)] == 80
        assert max(a.t_done, b.t_done) >= 80  # bandwidth bound respected

    def test_vcs_relieve_head_of_line_blocking(self):
        """Saturated throughput with 2 VCs >= without (same routing)."""
        topo = random_irregular_topology(20, 4, rng=5)
        r = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=16, injection_rate=1.0,
            warmup_clocks=800, measure_clocks=2_500, seed=5,
        )
        base = simulate(r, cfg)
        vc2 = simulate_vc(r, cfg, num_vcs=2)
        assert vc2.accepted_traffic >= 0.95 * base.accepted_traffic

    def test_vcs_increase_saturation_throughput(self):
        """2 VCs accept at least as much traffic as 1 VC at saturation."""
        routing = build_down_up_routing(random_irregular_topology(32, 4, rng=17))
        cfg = SimulationConfig(
            packet_length=16, injection_rate=1.0,
            warmup_clocks=500, measure_clocks=2_000, seed=17,
        )
        one = simulate_vc(routing, cfg, num_vcs=1)
        two = simulate_vc(routing, cfg, num_vcs=2)
        assert two.accepted_traffic >= one.accepted_traffic


class TestDeadlockBehaviour:
    def test_replicate_verified_routing_never_deadlocks(self):
        topo = random_irregular_topology(20, 4, rng=9)
        r = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=16, injection_rate=1.0,
            warmup_clocks=0, measure_clocks=3_000, seed=2,
            deadlock_interval=400,
        )
        stats = simulate_vc(r, cfg, num_vcs=2)  # must not raise
        assert stats.accepted_traffic > 0

    def test_engineered_cycle_deadlocks_with_one_vc(self, ring6):
        routing = fixed_path_routing(
            ring6,
            {
                (0, 2): [0, 1, 2],
                (1, 3): [1, 2, 3],
                (2, 4): [2, 3, 4],
                (3, 5): [3, 4, 5],
                (4, 0): [4, 5, 0],
                (5, 1): [5, 0, 1],
            },
        )
        traffic = FixedDestinationTraffic({0: 2, 1: 3, 2: 4, 3: 5, 4: 0, 5: 1})
        cfg = SimulationConfig(
            packet_length=32, injection_rate=1.0,
            warmup_clocks=0, measure_clocks=50_000, seed=3,
            deadlock_interval=500,
        )
        with pytest.raises(DeadlockDetected):
            simulate_vc(routing, cfg, num_vcs=1, traffic=traffic)

    def test_duato_escape_prevents_adaptive_deadlock(self, ring6):
        """The adaptive layer alone is cyclic on a ring; the escape VC
        keeps the network deadlock-free at saturation."""
        d = build_duato_routing(ring6, escape="up-down")
        cfg = SimulationConfig(
            packet_length=16, injection_rate=1.0,
            warmup_clocks=0, measure_clocks=12_000, seed=4,
            deadlock_interval=500,
        )
        stats = simulate_vc(d, cfg, num_vcs=2)  # must not raise
        assert stats.accepted_traffic > 0

    def test_duato_on_irregular_network(self):
        topo = random_irregular_topology(20, 4, rng=12)
        d = build_duato_routing(topo, escape="down-up")
        cfg = SimulationConfig(
            packet_length=16, injection_rate=1.0,
            warmup_clocks=500, measure_clocks=3_000, seed=6,
            deadlock_interval=500,
        )
        stats = simulate_vc(d, cfg, num_vcs=3)
        assert stats.accepted_traffic > 0


class TestDuatoRouting:
    def test_unknown_escape_rejected(self):
        with pytest.raises(KeyError, match="unknown escape"):
            build_duato_routing(zoo.mesh(3, 3), escape="nope")

    def test_prebuilt_escape_accepted(self):
        topo = zoo.mesh(3, 3)
        esc = build_down_up_routing(topo)
        d = build_duato_routing(topo, escape=esc)
        assert d.escape is esc
        assert d.name == "duato(down-up)"

    def test_mismatched_topologies_rejected(self):
        a = build_fully_adaptive_minimal(zoo.mesh(3, 3))
        b = build_up_down_routing(zoo.mesh(3, 4))
        with pytest.raises(ValueError, match="share a topology"):
            DuatoRouting(adaptive=a, escape=b)

    def test_adaptive_layer_is_minimal_and_connected(self):
        topo = random_irregular_topology(16, 4, rng=3)
        adaptive = build_fully_adaptive_minimal(topo)
        import collections

        def bfs_dist(src):
            dist = {src: 0}
            q = collections.deque([src])
            while q:
                v = q.popleft()
                for w in topo.neighbors(v):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        q.append(w)
            return dist

        for s in range(topo.n):
            d0 = bfs_dist(s)
            for d in range(topo.n):
                if s != d:
                    assert adaptive.path_length(s, d) == d0[d]


class TestConservation:
    def test_invariants_under_load(self):
        topo = random_irregular_topology(16, 4, rng=4)
        r = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=8, injection_rate=0.3,
            warmup_clocks=0, measure_clocks=1_200, seed=7,
        )
        sim = VirtualChannelSimulator(r, cfg, num_vcs=2)
        sim.enable_invariant_checks()
        sim.stats.active = True
        for _ in range(1200):
            sim.step()
            sim.stats.window_clocks += 1
        held = {vc for w in sim.active for vc in w.chain}
        occupied = {vc for vc, pid in enumerate(sim.vc_occ) if pid != -1}
        assert held == occupied

    def test_deterministic_given_seed(self):
        topo = random_irregular_topology(14, 4, rng=8)
        r = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=8, injection_rate=0.2,
            warmup_clocks=200, measure_clocks=800, seed=31,
        )
        a = simulate_vc(r, cfg, num_vcs=2)
        b = simulate_vc(r, cfg, num_vcs=2)
        assert a.latencies == b.latencies

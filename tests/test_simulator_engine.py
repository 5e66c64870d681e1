"""Tests for the wormhole engine: timing, pipelining, blocking, arbitration."""

import dataclasses

import numpy as np
import pytest

from repro.routing.updown import build_up_down_routing
from repro.simulator import (
    DeadlockDetected,
    SimulationConfig,
    WormholeSimulator,
    simulate,
)
from repro.simulator.fastpath import InjectionWheel, NotifyingDeque
from repro.simulator.packet import Worm
from repro.topology.graph import Topology
from tests.helpers import FixedDestinationTraffic, fixed_path_routing


def drive_single_packet(topology, routing, src, dst, length, clocks=200):
    """Inject one packet by hand and run until delivery."""
    cfg = SimulationConfig(
        packet_length=length,
        injection_rate=0.0,
        warmup_clocks=0,
        measure_clocks=clocks,
        seed=0,
    )
    sim = WormholeSimulator(routing, cfg)
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


class TestUnloadedTiming:
    """Header: (header_delay + link_delay) = 3 clocks per hop; data
    flits stream at 1 flit/clock behind it."""

    @pytest.mark.parametrize("hops", [1, 2, 4])
    @pytest.mark.parametrize("length", [1, 4, 16])
    def test_latency_formula_on_a_line(self, hops, length):
        topo = Topology(hops + 1, [(i, i + 1) for i in range(hops)])
        routing = build_up_down_routing(topo)
        _sim, w = drive_single_packet(topo, routing, 0, hops, length)
        assert w.t_done is not None
        assert w.t_head_arrival == 3 * hops
        assert w.t_done == 3 * hops + (length - 1)
        assert w.hops == hops

    def test_all_flits_cross_every_channel(self):
        topo = Topology(3, [(0, 1), (1, 2)])
        routing = build_up_down_routing(topo)
        sim, w = drive_single_packet(topo, routing, 0, 2, 8)
        stats = sim.stats
        assert stats.channel_flits[topo.channel_id(0, 1)] == 8
        assert stats.channel_flits[topo.channel_id(1, 2)] == 8
        assert stats.channel_flits[topo.channel_id(1, 0)] == 0
        assert stats.consumed_flits[2] == 8
        assert stats.injected_flits[0] == 8


class TestWormholeSemantics:
    def test_worm_holds_channels_while_blocked(self):
        """A worm blocked behind another holds its channels (wormhole,
        not virtual cut-through)."""
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        routing = fixed_path_routing(
            topo, {(0, 3): [0, 1, 2, 3], (1, 3): [1, 2, 3]}
        )
        cfg = SimulationConfig(
            packet_length=64,
            injection_rate=0.0,
            warmup_clocks=0,
            measure_clocks=10,
            seed=0,
        )
        sim = WormholeSimulator(routing, cfg)
        sim.enable_invariant_checks()
        a = Worm(0, 1, 3, 64, 0)  # long worm grabs 1->2->3 first
        b = Worm(1, 0, 3, 64, 0)
        sim.queues[1].append(a)
        sim.queues[0].append(b)
        for _ in range(30):
            sim.step()
        # b's header sits at channel <0,1> waiting for <1,2>
        assert b.chain and b.chain[0] == topo.channel_id(0, 1)
        assert sim.channel_occ[topo.channel_id(1, 2)] == a.pid
        assert b.hops == 1  # could not advance past switch 1

    def test_blocked_worm_resumes_after_release(self):
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        routing = fixed_path_routing(
            topo, {(0, 3): [0, 1, 2, 3], (1, 3): [1, 2, 3]}
        )
        cfg = SimulationConfig(
            packet_length=8,
            injection_rate=0.0,
            warmup_clocks=0,
            measure_clocks=400,
            seed=0,
        )
        sim = WormholeSimulator(routing, cfg)
        a = Worm(0, 1, 3, 8, 0)
        b = Worm(1, 0, 3, 8, 0)
        sim.queues[1].append(a)
        sim.queues[0].append(b)
        for _ in range(400):
            sim.step()
            if b.t_done is not None:
                break
        assert a.t_done is not None and b.t_done is not None
        assert b.t_done > a.t_done

    def test_consumption_port_serialises_same_destination(self):
        # 0 -> 2 and 1 -> 2 over disjoint channels; port at 2 is shared
        topo = Topology(3, [(0, 2), (1, 2)])
        routing = fixed_path_routing(topo, {(0, 2): [0, 2], (1, 2): [1, 2]})
        cfg = SimulationConfig(
            packet_length=32,
            injection_rate=0.0,
            warmup_clocks=0,
            measure_clocks=300,
            seed=1,
        )
        sim = WormholeSimulator(routing, cfg)
        a = Worm(0, 0, 2, 32, 0)
        b = Worm(1, 1, 2, 32, 0)
        sim.queues[0].append(a)
        sim.queues[1].append(b)
        for _ in range(300):
            sim.step()
        assert a.t_done is not None and b.t_done is not None
        # drains serialise: second finishes >= packet_length after first
        assert abs(a.t_done - b.t_done) >= 32

    def test_injection_port_serialises_same_source(self):
        topo = Topology(2, [(0, 1)])
        routing = fixed_path_routing(topo, {(0, 1): [0, 1]})
        cfg = SimulationConfig(
            packet_length=16,
            injection_rate=0.0,
            warmup_clocks=0,
            measure_clocks=300,
            seed=1,
        )
        sim = WormholeSimulator(routing, cfg)
        a = Worm(0, 0, 1, 16, 0)
        b = Worm(1, 0, 1, 16, 0)
        sim.queues[0].extend([a, b])
        for _ in range(300):
            sim.step()
        assert a.t_done is not None and b.t_done is not None
        assert b.t_inject > a.t_inject


class TestDeadlockDetection:
    def test_knot_detector_flags_engineered_cycle(self, ring6):
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
            packet_length=32,
            injection_rate=1.0,
            warmup_clocks=0,
            measure_clocks=50_000,
            seed=3,
            deadlock_interval=500,
        )
        with pytest.raises(DeadlockDetected, match="never progress"):
            simulate(routing, cfg, traffic)

    def test_detector_quiet_on_verified_routing(self, medium_irregular):
        from repro.core.downup import build_down_up_routing

        routing = build_down_up_routing(medium_irregular)
        cfg = SimulationConfig(
            packet_length=16,
            injection_rate=1.0,  # saturated
            warmup_clocks=0,
            measure_clocks=4_000,
            seed=3,
            deadlock_interval=300,
        )
        stats = simulate(routing, cfg)  # must not raise
        assert stats.accepted_traffic > 0

    def test_find_deadlocked_empty_when_idle(self, line3):
        routing = build_up_down_routing(line3)
        sim = WormholeSimulator(
            routing,
            SimulationConfig(
                packet_length=4, injection_rate=0.0, warmup_clocks=0,
                measure_clocks=10, seed=0,
            ),
        )
        assert sim.find_deadlocked_worms() == []


class TestConservation:
    def test_flit_conservation_under_load(self, medium_irregular):
        from repro.core.downup import build_down_up_routing

        routing = build_down_up_routing(medium_irregular)
        cfg = SimulationConfig(
            packet_length=8,
            injection_rate=0.3,
            warmup_clocks=0,
            measure_clocks=2_000,
            seed=9,
        )
        sim = WormholeSimulator(routing, cfg)
        sim.enable_invariant_checks()  # per-worm conservation each clock
        sim.stats.active = True
        for _ in range(2000):
            sim.step()
            sim.stats.window_clocks += 1
        # global: channel occupancy mirrors the union of worm chains
        held = {
            cid for w in sim.active for cid in w.chain
        }
        occupied = {
            c for c in range(medium_irregular.num_channels)
            if sim.channel_occ[c] != -1
        }
        assert held == occupied

    def test_deterministic_given_seed(self, small_irregular):
        from repro.core.downup import build_down_up_routing

        routing = build_down_up_routing(small_irregular)
        cfg = SimulationConfig(
            packet_length=8,
            injection_rate=0.2,
            warmup_clocks=200,
            measure_clocks=1_000,
            seed=21,
        )
        a = simulate(routing, cfg)
        b = simulate(routing, cfg)
        assert a.accepted_traffic == b.accepted_traffic
        assert a.latencies == b.latencies
        assert np.array_equal(a.channel_flits, b.channel_flits)


class TestParkingInvariant:
    """The fast path parks a header request that lost arbitration on
    the resources it waits for and skips it until one is released.  The
    invariant mode checks, every clock, that each parked request has
    all its resources busy and is on each one's waiter list."""

    @staticmethod
    def _saturated_hotspot(topology, engine="fast"):
        from repro.core.downup import build_down_up_routing
        from repro.simulator.traffic import HotspotTraffic

        routing = build_down_up_routing(topology, rng=7)
        cfg = SimulationConfig(
            packet_length=16,
            injection_rate=1.0,
            warmup_clocks=0,
            measure_clocks=1_500,
            seed=21,
            engine=engine,
        )
        traffic = HotspotTraffic(topology.n, hotspots=(2, 9), fraction=0.5)
        return WormholeSimulator(routing, cfg, traffic=traffic)

    def test_saturated_hotspot_keeps_parking_invariant(self, medium_irregular):
        sim = self._saturated_hotspot(medium_irregular)
        sim.enable_invariant_checks()
        parked = blocked = 0
        for _ in range(1_500):
            sim.step()
            parked += sum(req[0].parked for req in sim._reqs)
            blocked += len(sim._wheel.blocked)
        # saturation really parked both kinds of request
        assert parked > 0 and blocked > 0
        ref = self._saturated_hotspot(medium_irregular, "reference")
        for _ in range(1_500):
            ref.step()

        def state(s):
            worms = [(w.pid, w.chain, w.chain_flits) for w in s.active]
            return worms, s.rng.bit_generator.state

        assert state(ref) == state(sim)

    def test_check_catches_a_missed_wake(self, medium_irregular):
        sim = self._saturated_hotspot(medium_irregular)
        sim.enable_invariant_checks()
        while not any(req[0].parked for req in sim._reqs):
            sim.step()
        req = next(req for req in sim._reqs if req[0].parked)
        w, origin, cands = req
        # release one awaited resource behind the engine's back
        if origin is None:
            sim.consume_occ[w.dst] = -1
        else:
            sim.channel_occ[cands if isinstance(cands, int) else cands[0]] = -1
        with pytest.raises(AssertionError, match="parked on free resource"):
            sim._check_parking()


class TestNotifyingDeque:
    """A source queue signals the injection wheel only when its
    emptiness or its front changes."""

    def test_append_to_empty_queue_wakes_the_source(self):
        wheel = InjectionWheel()
        q = NotifyingDeque(wheel, 3)
        q.append("a")
        assert wheel.pending == {3} and wheel.blocked == []

    @pytest.mark.parametrize("state", ["blocked", "asleep"])
    def test_append_behind_a_front_changes_nothing(self, state):
        wheel = InjectionWheel()
        q = NotifyingDeque(wheel, 3)
        q.append("a")
        if state == "blocked":
            wheel.block(3)
        else:
            wheel.sleep(3)
        pending, blocked = set(wheel.pending), list(wheel.blocked)
        q.append("b")
        assert wheel.pending == pending and wheel.blocked == blocked

    def test_popleft_to_a_new_front_wakes_the_source(self):
        wheel = InjectionWheel()
        q = NotifyingDeque(wheel, 3)
        q.append("a")
        q.append("b")
        wheel.block(3)
        q.popleft()
        assert wheel.pending == {3} and wheel.blocked == []


class TestLoadBehaviour:
    def test_accepted_tracks_offered_below_saturation(self, medium_irregular):
        from repro.core.downup import build_down_up_routing

        routing = build_down_up_routing(medium_irregular)
        cfg = SimulationConfig(
            packet_length=16,
            injection_rate=0.04,
            warmup_clocks=1_000,
            measure_clocks=4_000,
            seed=4,
        )
        stats = simulate(routing, cfg)
        assert stats.accepted_traffic == pytest.approx(0.04, rel=0.25)
        assert stats.queue_backlog < 10

    def test_accepted_plateaus_beyond_saturation(self, medium_irregular):
        from repro.core.downup import build_down_up_routing

        routing = build_down_up_routing(medium_irregular)
        mk = lambda rate: SimulationConfig(
            packet_length=16,
            injection_rate=rate,
            warmup_clocks=1_000,
            measure_clocks=3_000,
            seed=4,
        )
        mid = simulate(routing, mk(0.5))
        high = simulate(routing, mk(1.0))
        assert high.accepted_traffic == pytest.approx(
            mid.accepted_traffic, rel=0.2
        )
        assert high.queue_backlog > 50

    def test_latency_monotone_in_load(self, medium_irregular):
        from repro.core.downup import build_down_up_routing

        routing = build_down_up_routing(medium_irregular)
        mk = lambda rate: SimulationConfig(
            packet_length=16,
            injection_rate=rate,
            warmup_clocks=1_000,
            measure_clocks=4_000,
            seed=4,
        )
        low = simulate(routing, mk(0.02))
        high = simulate(routing, mk(0.5))
        assert high.average_latency > low.average_latency


class TestConfigValidation:
    def test_bad_packet_length(self):
        with pytest.raises(ValueError):
            SimulationConfig(packet_length=0)

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            SimulationConfig(injection_rate=-0.1)

    def test_rate_above_one_packet_per_clock(self):
        with pytest.raises(ValueError):
            SimulationConfig(packet_length=4, injection_rate=5.0)

    def test_zero_buffer(self):
        with pytest.raises(ValueError):
            SimulationConfig(buffer_flits=0)

    def test_negative_deadlock_interval(self):
        # a negative interval never matches the watchdog's clock test,
        # so it would silently disable deadlock detection
        with pytest.raises(ValueError, match="deadlock_interval"):
            SimulationConfig(deadlock_interval=-1)
        assert SimulationConfig(deadlock_interval=0).deadlock_interval == 0

    def test_fields_are_the_paper_traffic_model(self):
        # one packet length, unbounded queues, random selection: the
        # traffic model itself has no knob
        assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
            "packet_length", "injection_rate", "warmup_clocks",
            "measure_clocks", "buffer_flits", "header_delay", "link_delay",
            "seed", "deadlock_interval", "max_stall_clocks", "engine",
        ]

    def test_with_rate_and_seed(self):
        cfg = SimulationConfig()
        assert cfg.with_rate(0.5).injection_rate == 0.5
        assert cfg.with_seed(9).seed == 9
        assert cfg.total_clocks == cfg.warmup_clocks + cfg.measure_clocks

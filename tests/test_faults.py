"""Live fault injection and online reconfiguration tests.

Covers the :mod:`repro.faults` package end to end: schedule validation
and determinism, the survivor-topology remapping, deterministic
drop/drain/retry mechanics on engineered single-packet scenarios, the
stall watchdog, full fault runs on both engines, and byte-identical
reproducibility of a seeded fault campaign.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.downup import build_down_up_routing
from repro.faults import (
    FaultEvent,
    FaultRuntime,
    FaultSchedule,
    PartitionError,
    ReconfigurationController,
    RetryPolicy,
    remap_routing,
    surviving_topology,
)
from repro.routing.duato import build_duato_routing
from repro.routing.updown import build_up_down_routing
from repro.simulator import (
    LivelockSuspected,
    SimulationConfig,
    VirtualChannelSimulator,
    WormholeSimulator,
)
from repro.simulator.engine import FREE
from repro.topology.generator import random_irregular_topology
from repro.topology.graph import Topology

from tests.helpers import fixed_path_routing


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------
class TestFaultEvent:
    def test_link_normalised(self):
        ev = FaultEvent(cycle=5, kind="link_down", link=(3, 1))
        assert ev.link == (1, 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(cycle=0, kind="meteor_strike", link=(0, 1))

    def test_switch_event_refuses_link(self):
        with pytest.raises(ValueError):
            FaultEvent(cycle=0, kind="switch_down", link=(0, 1), switch=2)
        with pytest.raises(ValueError):
            FaultEvent(cycle=0, kind="link_down", switch=2)

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            FaultEvent(cycle=-1, kind="link_down", link=(0, 1))


class TestFaultSchedule:
    def test_bridge_link_failure_refused(self, line3):
        with pytest.raises(PartitionError, match="bridge"):
            FaultSchedule(
                line3, [FaultEvent(cycle=0, kind="link_down", link=(0, 1))]
            )

    def test_partitioning_switch_failure_refused(self, line3):
        with pytest.raises(PartitionError, match="switch"):
            FaultSchedule(
                line3, [FaultEvent(cycle=0, kind="switch_down", switch=1)]
            )

    def test_leaf_switch_failure_allowed(self, line3):
        sched = FaultSchedule(
            line3, [FaultEvent(cycle=0, kind="switch_down", switch=0)]
        )
        assert len(sched) == 1

    def test_ring_tolerates_one_failure_not_two_cuts(self, ring6):
        FaultSchedule(
            ring6, [FaultEvent(cycle=0, kind="link_down", link=(0, 1))]
        )
        # after (0,1) dies the ring is a line: every remaining link is a
        # bridge, so a second failure must be refused
        with pytest.raises(PartitionError):
            FaultSchedule(
                ring6,
                [
                    FaultEvent(cycle=0, kind="link_down", link=(0, 1)),
                    FaultEvent(cycle=10, kind="link_down", link=(3, 4)),
                ],
            )

    def test_flap_revives_capacity(self, ring6):
        # with (0,1) back up at clock 20, killing (3,4) at 30 is fine
        FaultSchedule(
            ring6,
            [
                FaultEvent(cycle=0, kind="link_down", link=(0, 1)),
                FaultEvent(cycle=20, kind="link_up", link=(0, 1)),
                FaultEvent(cycle=30, kind="link_down", link=(3, 4)),
            ],
        )

    def test_duplicate_down_and_spurious_up_rejected(self, ring6):
        with pytest.raises(ValueError, match="already down"):
            FaultSchedule(
                ring6,
                [
                    FaultEvent(cycle=0, kind="link_down", link=(0, 1)),
                    FaultEvent(cycle=5, kind="link_down", link=(0, 1)),
                ],
            )
        with pytest.raises(ValueError, match="not down"):
            FaultSchedule(
                ring6, [FaultEvent(cycle=0, kind="link_up", link=(0, 1))]
            )

    def test_unknown_link_rejected(self, ring6):
        with pytest.raises(ValueError, match="no such link"):
            FaultSchedule(
                ring6, [FaultEvent(cycle=0, kind="link_down", link=(0, 3))]
            )

    def test_events_sorted_by_cycle(self, ring6):
        sched = FaultSchedule(
            ring6,
            [
                FaultEvent(cycle=50, kind="link_down", link=(3, 4)),
                FaultEvent(cycle=10, kind="link_down", link=(0, 1)),
                FaultEvent(cycle=30, kind="link_up", link=(0, 1)),
            ],
        )
        assert [e.cycle for e in sched] == [10, 30, 50]


class TestRandomSchedule:
    def test_seed_determinism(self):
        topo = random_irregular_topology(n=16, ports=4, rng=1)
        kwargs = dict(
            permanent_links=2, link_flaps=1, window=(100, 5_000), rng=42
        )
        a = FaultSchedule.random(topo, **kwargs)
        b = FaultSchedule.random(topo, **kwargs)
        assert a.events == b.events
        c = FaultSchedule.random(topo, **{**kwargs, "rng": 43})
        assert a.events != c.events

    def test_requested_counts_materialise(self):
        topo = random_irregular_topology(n=16, ports=4, rng=1)
        sched = FaultSchedule.random(
            topo, permanent_links=2, link_flaps=1, switch_failures=1,
            window=(0, 1_000), rng=7,
        )
        kinds = [e.kind for e in sched]
        assert kinds.count("link_down") == 3  # 2 permanent + 1 flap
        assert kinds.count("link_up") == 1
        assert kinds.count("switch_down") == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_never_partitions(self, seed):
        # the constructor re-validates, so surviving this is the proof
        topo = random_irregular_topology(n=16, ports=4, rng=1)
        sched = FaultSchedule.random(
            topo, permanent_links=3, window=(0, 1_000), rng=seed
        )
        assert len(sched) == 3

    FLAP_AND_SWITCH = dict(
        permanent_links=0, link_flaps=1, switch_failures=1, window=(0, 1_000)
    )

    def test_flap_on_dying_switch_stays_down(self):
        """A switch failure inside a flap kills the flapping link for
        good: the UP edge is dropped instead of failing validation."""
        topo = random_irregular_topology(n=16, ports=4, rng=1)
        for seed in range(200):
            FaultSchedule.random(topo, rng=seed, **self.FLAP_AND_SWITCH)
        sched = FaultSchedule.random(topo, rng=18, **self.FLAP_AND_SWITCH)
        assert [(e.cycle, e.kind, e.link, e.switch) for e in sched] == [
            (399, "link_down", (5, 14), None),
            (893, "switch_down", None, 14),
        ]

    def test_valid_draw_is_unchanged(self):
        # recorded before flaps on dying switches lost their UP edge
        topo = random_irregular_topology(n=16, ports=4, rng=1)
        sched = FaultSchedule.random(topo, rng=0, **self.FLAP_AND_SWITCH)
        assert [(e.cycle, e.kind, e.link, e.switch) for e in sched] == [
            (636, "link_down", (2, 7), None),
            (850, "switch_down", None, 4),
            (1636, "link_up", (2, 7), None),
        ]

    def test_impossible_request_raises(self, line3):
        with pytest.raises(ValueError, match="partition"):
            FaultSchedule.random(line3, permanent_links=1, rng=0)

    def test_empty_schedule(self, ring6):
        sched = FaultSchedule.random(ring6, permanent_links=0, rng=0)
        assert len(sched) == 0
        assert "empty" in sched.describe()


# ---------------------------------------------------------------------------
# survivor topology and remapping
# ---------------------------------------------------------------------------
class TestRemap:
    def test_surviving_topology_renumbers_densely(self):
        topo = Topology(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        sub, live = surviving_topology(topo, {(1, 3)}, {2})
        assert live == [0, 1, 3, 4]
        # old links among survivors: (0,1),(3,4),(0,4) -> renumbered
        assert set(sub.links) == {(0, 1), (2, 3), (0, 3)}

    def test_disconnected_survivors_rejected(self, line3):
        with pytest.raises(ValueError, match="disconnected"):
            surviving_topology(line3, {(0, 1)}, set())

    def test_remapped_routing_avoids_dead_resources(self):
        topo = random_irregular_topology(n=16, ports=4, rng=1)
        sched = FaultSchedule.random(
            topo, permanent_links=2, window=(0, 10), rng=3
        )
        dead = {e.link for e in sched}
        ctrl = ReconfigurationController(
            lambda sub: build_down_up_routing(sub, rng=7)
        )
        routing = ctrl.rebuild(topo, dead, set())
        assert routing.topology == topo
        assert routing.meta["verified"] is True
        dead_cids = {
            topo.channel_id(u, v) for u, v in dead
        } | {topo.channel_id(v, u) for u, v in dead}
        for d in range(topo.n):
            for opts in routing.next_hops[d]:
                assert not (set(opts) & dead_cids)
            for opts in routing.first_hops[d]:
                assert not (set(opts) & dead_cids)
        # still fully connected among the (all-surviving) switches
        for d in range(topo.n):
            for s in range(topo.n):
                if s != d:
                    assert routing.first_hops[d][s]

    def test_remap_with_dead_switch_marks_it_unroutable(self):
        topo = random_irregular_topology(n=16, ports=4, rng=1)
        sub, live = surviving_topology(topo, set(), {5})
        routing = remap_routing(build_down_up_routing(sub, rng=7), topo, live)
        assert 5 not in routing.meta["live_switches"]
        # nobody can route to or from the dead switch
        assert all(not fh for fh in routing.first_hops[5])
        for d in range(topo.n):
            if d != 5:
                assert not routing.first_hops[d][5]
        # everyone else still reaches everyone else
        for d in range(topo.n):
            for s in range(topo.n):
                if s != d and 5 not in (s, d):
                    assert routing.first_hops[d][s]

    def test_remap_preserves_distances_up_to_renaming(self):
        topo = random_irregular_topology(n=12, ports=4, rng=2)
        sub, live = surviving_topology(topo, set(), set())
        small = build_down_up_routing(sub, rng=7)
        remapped = remap_routing(small, topo, live)
        # no dead resources: live is the identity, so tables must agree
        assert live == list(range(topo.n))
        for d in range(topo.n):
            for s in range(topo.n):
                if s != d:
                    assert (
                        remapped.path_length(s, d) == small.path_length(s, d)
                    )


# ---------------------------------------------------------------------------
# engineered single-packet scenarios (deterministic)
# ---------------------------------------------------------------------------
def _single_packet_sim(
    routing, length=16, max_stall=None, engine=WormholeSimulator
):
    cfg = SimulationConfig(
        packet_length=length,
        injection_rate=0.0,
        warmup_clocks=0,
        measure_clocks=1,
        seed=0,
        deadlock_interval=500,
        max_stall_clocks=max_stall,
    )
    sim = engine(routing, cfg)
    sim.stats.active = True
    sim.enable_invariant_checks()
    return sim


def _find_crossing(routing, src, dst, length, chain_index):
    """Clock and link at which a lone (src->dst) worm spans >= 2 channels.

    Returns ``(cycle, link)`` such that re-running the same engine with a
    kill of *link* scheduled at *cycle* catches the worm mid-crossing
    (the engine is deterministic for a fixed seed).
    """
    sim = _single_packet_sim(routing, length)
    sim._fault_requeue(src, dst, length, logical_id=0, attempts=0, t_gen=0)
    for _ in range(500):
        sim.step()
        if sim.active:
            w = sim.active[0]
            if len(w.chain) >= 2 and sum(w.chain_flits) > 0:
                ch = sim.topology.channel(w.chain[chain_index])
                return sim.clock, tuple(sorted((ch.start, ch.sink)))
    raise AssertionError("worm never spanned two channels")


class TestDropRetryReconfigure:
    def test_drop_retry_and_deliver(self, ring6):
        routing = build_down_up_routing(ring6, rng=1)
        cycle, link = _find_crossing(routing, 0, 3, 16, chain_index=0)
        sched = FaultSchedule(
            ring6, [FaultEvent(cycle=cycle, kind="link_down", link=link)]
        )
        ctrl = ReconfigurationController(
            lambda sub: build_down_up_routing(sub, rng=1), drain_clocks=16
        )
        sim = _single_packet_sim(routing, 16)
        sim.attach_faults(
            FaultRuntime(sched, ctrl, retry=RetryPolicy(backoff_base=8))
        )
        sim._fault_requeue(0, 3, 16, logical_id=0, attempts=0, t_gen=0)
        for _ in range(cycle + 600):
            sim.step()
        st = sim.stats
        assert st.fault_drops >= 1
        assert st.retries >= 1
        assert st.delivered_packets == 1
        assert st.lost_packets == 0
        # run fully drained: every resource is free again
        assert not sim.active and not sim.worms
        assert all(occ == FREE for occ in sim.channel_occ)
        assert all(occ == FREE for occ in sim.injection_occ)
        assert all(occ == FREE for occ in sim.consume_occ)
        (rec,) = sim.faults.records
        assert rec.verified and rec.swap_clock - rec.trigger_clock == 16

    def test_drain_policy_delivers_corrupted_fragment(self, ring6):
        routing = build_down_up_routing(ring6, rng=1)
        # kill the link under the *tail-most* held channel, so the
        # fragment beyond the break keeps flits to drain
        cycle, link = _find_crossing(routing, 0, 3, 16, chain_index=-1)
        sched = FaultSchedule(
            ring6, [FaultEvent(cycle=cycle, kind="link_down", link=link)]
        )
        # swap far beyond the drain time of a 16-flit fragment, so the
        # corrupted delivery happens before any ejection could
        ctrl = ReconfigurationController(
            lambda sub: build_down_up_routing(sub, rng=1), drain_clocks=300
        )
        sim = _single_packet_sim(routing, 16)
        sim.attach_faults(
            FaultRuntime(
                sched, ctrl, retry=RetryPolicy(backoff_base=8), policy="drain"
            )
        )
        sim._fault_requeue(0, 3, 16, logical_id=0, attempts=0, t_gen=0)
        stepped_on_fragment = False
        for _ in range(cycle + 1_000):
            sim.step()
            if any(w.corrupted for w in sim.active):
                stepped_on_fragment = True
        st = sim.stats
        assert stepped_on_fragment, "drain never left a corrupted fragment"
        assert st.corrupted_deliveries == 1
        assert st.fault_drops >= 1  # the fragment, reported at completion
        assert st.delivered_packets == 1  # the retry got through
        assert not sim.active and all(o == FREE for o in sim.channel_occ)

    def test_retry_budget_exhaustion_counts_lost(self, line3):
        routing = fixed_path_routing(line3, {(0, 2): [0, 1, 2]})
        cycle, link = _find_crossing(routing, 0, 2, 8, chain_index=0)
        assert link == (1, 2)
        # no controller: the network never reconfigures, so every retry
        # re-enters, stalls on the head link, and is never delivered;
        # a partitioning schedule needs check=False
        sched = FaultSchedule(
            line3,
            [FaultEvent(cycle=cycle, kind="link_down", link=link)],
            check=False,
        )
        runtime = FaultRuntime(
            sched,
            controller=None,
            retry=RetryPolicy(max_retries=0),
        )
        sim = _single_packet_sim(routing, 8)
        sim.attach_faults(runtime)
        sim._fault_requeue(0, 2, 8, logical_id=0, attempts=0, t_gen=0)
        for _ in range(cycle + 50):
            sim.step()
        assert sim.stats.fault_drops == 1
        assert sim.stats.lost_packets == 1
        assert sim.stats.retries == 0
        assert sim.stats.delivered_packets == 0

    @pytest.mark.parametrize(
        "engine",
        [WormholeSimulator, functools.partial(VirtualChannelSimulator, num_vcs=1)],
        ids=["base", "vc1"],
    )
    def test_stall_raises_livelock_suspected(self, line3, engine):
        """Both engines share one stall watchdog."""
        routing = fixed_path_routing(line3, {(0, 2): [0, 1, 2]})
        sched = FaultSchedule(
            line3,
            [FaultEvent(cycle=1, kind="link_down", link=(1, 2))],
            check=False,
        )
        sim = _single_packet_sim(routing, 8, max_stall=60, engine=engine)
        sim.attach_faults(FaultRuntime(sched, controller=None, retry=None))
        sim._fault_requeue(0, 2, 8, logical_id=0, attempts=0, t_gen=0)
        with pytest.raises(LivelockSuspected, match="worm dump"):
            for _ in range(1_000):
                sim.step()


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------
def _fault_campaign_stats(policy="drop", engine="base"):
    topo = random_irregular_topology(n=16, ports=4, rng=1)
    routing = build_down_up_routing(topo, rng=7)
    cfg = SimulationConfig(
        packet_length=16,
        injection_rate=0.08,
        warmup_clocks=500,
        measure_clocks=3_000,
        seed=5,
        max_stall_clocks=5_000,
    )
    # two permanent link failures inside the measurement window
    sched = FaultSchedule.random(
        topo, permanent_links=2, window=(800, 2_200), rng=42
    )
    assert all(
        cfg.warmup_clocks < e.cycle < cfg.total_clocks for e in sched
    )
    ctrl = ReconfigurationController(
        lambda sub: build_down_up_routing(sub, rng=7), drain_clocks=64
    )
    runtime = FaultRuntime(sched, ctrl, retry=RetryPolicy(), policy=policy)
    if engine == "vc":
        sim = VirtualChannelSimulator(routing, cfg, num_vcs=2)
    else:
        sim = WormholeSimulator(routing, cfg)
        sim.enable_invariant_checks()
    sim.attach_faults(runtime)
    return sim.run()


class TestFullRuns:
    @pytest.mark.parametrize("policy", ["drop", "drain"])
    def test_seeded_fault_run_meets_acceptance(self, policy):
        stats = _fault_campaign_stats(policy=policy)
        assert len(stats.reconfigurations) == 2
        assert all(r.verified for r in stats.reconfigurations)
        assert stats.delivered_fraction >= 0.99
        assert stats.delivered_packets > 100

    def test_run_is_byte_identical_under_fixed_seeds(self):
        a = _fault_campaign_stats()
        b = _fault_campaign_stats()
        assert a.summary() == b.summary()
        assert np.array_equal(a.channel_flits, b.channel_flits)
        assert np.array_equal(a.consumed_flits, b.consumed_flits)
        assert a.latencies == b.latencies
        assert a.reconfigurations == b.reconfigurations

    def test_vc_engine_survives_live_faults(self):
        stats = _fault_campaign_stats(engine="vc")
        assert len(stats.reconfigurations) == 2
        assert all(r.verified for r in stats.reconfigurations)
        assert stats.delivered_fraction >= 0.99

    def test_switch_failure_run(self):
        topo = random_irregular_topology(n=16, ports=4, rng=1)
        routing = build_up_down_routing(topo)
        cfg = SimulationConfig(
            packet_length=16,
            injection_rate=0.05,
            warmup_clocks=500,
            measure_clocks=2_500,
            seed=9,
            max_stall_clocks=5_000,
        )
        sched = FaultSchedule.random(
            topo, permanent_links=0, switch_failures=1,
            window=(800, 1_500), rng=11,
        )
        ctrl = ReconfigurationController(
            lambda sub: build_up_down_routing(sub), drain_clocks=64
        )
        sim = WormholeSimulator(routing, cfg)
        sim.enable_invariant_checks()
        sim.attach_faults(FaultRuntime(sched, ctrl, retry=RetryPolicy()))
        stats = sim.run()
        (dead,) = [e.switch for e in sched]
        assert stats.reconfigurations and all(
            r.verified for r in stats.reconfigurations
        )
        # traffic for the dead switch is lost, everything else arrives
        assert stats.delivered_packets > 0
        assert stats.consumed_flits[dead] <= cfg.packet_length * 2_000


class TestRuntimeGuards:
    def test_attach_rejects_foreign_topology(self, ring6, line3):
        routing = build_down_up_routing(ring6, rng=1)
        sim = WormholeSimulator(
            routing, SimulationConfig(packet_length=8, injection_rate=0.0)
        )
        sched = FaultSchedule(line3, [])
        with pytest.raises(ValueError, match="different topology"):
            sim.attach_faults(FaultRuntime(sched))

    def test_vc_engine_rejects_duato_faults(self, ring6):
        duato = build_duato_routing(ring6, escape="up-down")
        sim = VirtualChannelSimulator(
            duato,
            SimulationConfig(packet_length=8, injection_rate=0.0),
            num_vcs=2,
        )
        sched = FaultSchedule(ring6, [])
        with pytest.raises(ValueError, match="replicate"):
            sim.attach_faults(FaultRuntime(sched))

    def test_retry_policy_backoff_caps(self):
        rp = RetryPolicy(max_retries=8, backoff_base=64, backoff_cap=2048)
        assert rp.delay(0) == 64
        assert rp.delay(3) == 512
        assert rp.delay(10) == 2048  # capped

    def test_bad_policy_rejected(self, ring6):
        with pytest.raises(ValueError, match="policy"):
            FaultRuntime(FaultSchedule(ring6, []), policy="explode")

    def test_max_stall_config_validated(self):
        with pytest.raises(ValueError, match="max_stall_clocks"):
            SimulationConfig(max_stall_clocks=0)


# ---------------------------------------------------------------------------
# decision-cache epochs across faults and table swaps (fast path)
# ---------------------------------------------------------------------------
class TestDecisionCacheEpochs:
    """The routing-decision cache must swap atomically with the tables.

    A reconfiguration (or any dead-channel change) starts a new epoch:
    every cached candidate row and every per-worm memoized header
    request is dropped in the same call that installs the new state, so
    no lookup can ever mix pre- and post-swap entries.
    """

    def _loaded_sim(self, rng=9, seed=17):
        topo = random_irregular_topology(20, 4, rng=rng)
        routing = build_down_up_routing(topo, rng=7)
        cfg = SimulationConfig(
            packet_length=24, injection_rate=0.2,
            warmup_clocks=0, measure_clocks=1, seed=seed,
        )
        sim = WormholeSimulator(routing, cfg)
        for _ in range(400):
            sim.step()
        assert sim.active, "need worms in flight"
        return topo, sim

    def test_swap_bumps_epoch_and_drops_all_cached_state(self):
        topo, sim = self._loaded_sim()
        cache = sim.decision_cache
        # populate some rows and worm memos
        for dst in range(topo.n):
            cache.first_row(dst)[0]
        assert any(r is not None for r in cache._first_rows)
        epoch_before = cache.epoch
        new_routing = build_up_down_routing(topo)
        sim._fault_swap_routing(new_routing)
        assert cache.epoch == epoch_before + 1
        assert cache.routing is new_routing
        assert sim.routing is new_routing
        # the same call dropped every cached row and every worm memo —
        # nothing computed under the old tables can be served again
        assert all(r is None for r in cache._next_rows)
        assert all(r is None for r in cache._first_rows)
        assert all(w.hdr_req is None for w in sim.active)
        # the request list and parked requests built from them are
        # rebuilt before the next fast clock
        assert sim._arb_stale

    def test_dead_channel_mutation_bumps_epoch(self):
        topo, sim = self._loaded_sim(rng=10)
        cache = sim.decision_cache
        cache.next_row(0)[0]
        epoch = cache.epoch
        sim.dead_channels.add(3)
        assert cache.epoch == epoch + 1
        assert all(r is None for r in cache._next_rows)
        # cached rows rebuilt after the change exclude the dead channel
        for dst in range(topo.n):
            for cands in cache.next_row(dst):
                assert 3 not in cands
        sim.dead_channels.discard(3)
        assert cache.epoch == epoch + 2

    def test_vc_engine_swap_drops_both_caches(self, ring6):
        routing = build_up_down_routing(ring6)
        sim = VirtualChannelSimulator(
            routing,
            SimulationConfig(packet_length=8, injection_rate=0.0),
            num_vcs=2,
        )
        cache = sim.decision_cache
        cache.first_row(0)[1]
        epoch = cache.epoch
        new_routing = build_down_up_routing(ring6)
        sim._fault_swap_routing(new_routing)
        assert cache.epoch == epoch + 1
        assert cache.routing is new_routing
        assert all(r is None for r in cache._first_rows)

    def test_no_worm_mixes_epochs_across_live_swap(self):
        """After every mid-flight reconfiguration, each surviving chain
        is a path the *new* tables could have produced."""
        topo = random_irregular_topology(20, 4, rng=11)
        routing = build_down_up_routing(topo, rng=7)
        cfg = SimulationConfig(
            packet_length=24, injection_rate=0.2,
            warmup_clocks=0, measure_clocks=1, seed=5,
        )
        sched = FaultSchedule.random(
            topo, permanent_links=2, window=(200, 600), rng=12
        )
        ctrl = ReconfigurationController(
            lambda sub: build_down_up_routing(sub, rng=7), drain_clocks=32
        )
        sim = WormholeSimulator(routing, cfg)
        sim.attach_faults(FaultRuntime(sched, ctrl, retry=RetryPolicy()))
        swaps_seen = 0
        for _ in range(1_200):
            before = len(sim.faults.records)
            sim.step()
            if len(sim.faults.records) > before:
                swaps_seen += 1
                for w in sim.active:
                    if w.consuming or not w.chain:
                        continue
                    assert sim._chain_conforms(w), (
                        f"worm {w.pid} holds a pre-swap path after the "
                        f"epoch change"
                    )
        assert swaps_seen == len(sched)


# ---------------------------------------------------------------------------
# retry backoff and injection wheel share the engine clock
# ---------------------------------------------------------------------------
class TestRetryClockDomain:
    """Regression: all fault/scheduler timing is keyed by ``engine.clock``.

    The retry backoff heap and the injection event wheel carry absolute
    engine-clock deadlines (neither keeps a private counter), so a
    retried packet re-enters the source queue at exactly
    ``drop_clock + backoff`` and is scheduled for injection that same
    clock — on the reference and fast paths alike.
    """

    @pytest.mark.parametrize("fast", [False, True])
    def test_retry_reinjects_at_engine_clock_deadline(self, line3, fast):
        from tests.helpers import fixed_path_routing

        routing = fixed_path_routing(line3, {(0, 2): [0, 1, 2]})
        kill_cycle, backoff = 6, 16
        sched = FaultSchedule(
            line3,
            [
                FaultEvent(cycle=kill_cycle, kind="link_down", link=(1, 2)),
                FaultEvent(cycle=kill_cycle + 2, kind="link_up", link=(1, 2)),
            ],
            check=False,
        )
        runtime = FaultRuntime(
            sched,
            controller=None,
            retry=RetryPolicy(max_retries=1, backoff_base=backoff),
        )
        cfg = SimulationConfig(
            packet_length=16, injection_rate=0.0,
            warmup_clocks=0, measure_clocks=1, seed=0,
            engine="fast" if fast else "reference",
        )
        sim = WormholeSimulator(routing, cfg)
        sim.stats.active = True
        sim.attach_faults(runtime)
        sim._fault_requeue(0, 2, 16, logical_id=0, attempts=0, t_gen=0)
        requeue_clock = None
        for _ in range(kill_cycle + backoff + 60):
            sim.step()
            if requeue_clock is None and sim.stats.retries == 1:
                # on_clock ran at the start of this step, at clock-1
                requeue_clock = sim.clock - 1
        # the drop fires at kill_cycle; the retry must be released the
        # clock the engine reaches drop + backoff, not a clock sooner
        assert requeue_clock == kill_cycle + backoff
        # the retried worm injects immediately (port free, link back up)
        retried = [w for w in sim.worms.values() if w.attempts == 1]
        assert sim.stats.delivered_packets == 1 or retried
        if retried:
            assert retried[0].t_inject is None or (
                retried[0].t_inject >= requeue_clock
            )

    def test_wheel_timers_use_engine_clock(self, line3):
        """A parked source wakes exactly when ``engine.clock`` reaches
        the front packet's ``head_ready_at`` deadline."""
        from repro.simulator.packet import Worm

        routing = build_up_down_routing(line3)
        cfg = SimulationConfig(
            packet_length=4, injection_rate=0.0,
            warmup_clocks=0, measure_clocks=1, seed=0,
        )
        sim = WormholeSimulator(routing, cfg)
        sim.stats.active = True
        w = Worm(0, 0, 2, 4, 0)
        w.head_ready_at = 25  # not routing-ready until engine clock 25
        sim.queues[0].append(w)
        for _ in range(25):  # moves run at clocks 0..24
            sim.step()
        assert w.t_inject is None
        assert sim._wheel.parked == 1  # on a timer, not rescanned
        sim.step()  # move at engine clock 25: timer fires, header injects
        assert w.t_inject == 25

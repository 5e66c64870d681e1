"""Engine equivalence harnesses.

Three independent layers of cross-checking:

* **Differential golden suite** (``TestEngineDifferential``): every
  bit-exact step implementation — the seed reference ``_move`` and the
  active-set / decision-cache fast path — must replay the same
  simulation *byte for byte*: every RNG draw, every grant, every
  committed flit.  Each scenario runs both engines under a fixed seed
  and compares :meth:`SimulationStats.canonical_digest`, which hashes
  every simulated-physics field of the result.  The reference engine is
  the oracle; the fast path is an optimization that must be invisible.

* **Pinned digests** (``PINNED_DIGESTS``): the differential suite only
  checks reference == fast, so a change that shifted both the same way
  would pass it; the VC and base fault scenarios also match absolute
  digests.

* **Random scenarios** (``test_random_scenarios_fast_matches_reference``
  and its VC twin): hypothesis draws small networks, loads up to
  saturation, short packets, shallow buffers, hotspot traffic and
  fault schedules, and both step functions must
  still agree byte for byte with the invariants checked every clock.

* **Injection interleaving** (``TestInjectionInterleaving``): same-clock
  back-to-back injections at several sources produce identical
  per-worm event logs on both engines.

* **Steady streams** (``TestSteadyStreams``): the base fast path runs a
  steady stream off its per-clock scan and settles it lazily; every
  settle point (the warmup boundary, timeline ticks, fault hooks,
  invariant mode, the public ``step()``) must read exact worms and
  counters.

* **VC link-budget losers** (``TestVcBudgetLoser``): a VC header that
  loses only a physical link's budget stays unparked on the fast path.

* **Cross-engine consistency**: base engine vs VC engine at
  ``num_vcs=1`` — two independently written step functions modelling
  the same machine must agree statistically.

* **Engine selection** (``TestEngineSelection``): ``engine`` is the one
  selector, unset means ``"fast"``, and unknown names are rejected.
"""

import dataclasses
import functools

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core.downup import build_down_up_routing
from repro.faults import (
    FaultEvent,
    FaultRuntime,
    FaultSchedule,
    ReconfigurationController,
    RetryPolicy,
)
from repro.routing.duato import build_duato_routing
from repro.routing.updown import build_up_down_routing
from repro.simulator import (
    BIT_EXACT_ENGINES,
    ENGINES,
    RELAXED_ENGINES,
    SimulationConfig,
    VirtualChannelSimulator,
    WormholeSimulator,
    simulate,
    simulate_vc,
)
from repro.simulator.engine import FREE
from repro.simulator.packet import Worm
from repro.simulator.trace import TraceRecorder
from repro.simulator.traffic import (
    BitComplementTraffic,
    HotspotTraffic,
    TornadoTraffic,
)
from repro.topology import zoo
from repro.topology.generator import random_irregular_topology
from repro.topology.graph import Topology
from tests.helpers import fixed_path_routing


# ---------------------------------------------------------------------------
# differential golden suite: every bit-exact engine agrees, byte for
# byte (the relaxed batch engine is certified distributionally instead
# — tests/test_equivalence_gate.py and the `equivalence` CLI gate)
# ---------------------------------------------------------------------------
def _digests(make_sim, cfg, engines=BIT_EXACT_ENGINES):
    """Canonical digests of one scenario under each bit-exact engine."""
    return [make_sim(cfg.with_engine(e)).run().canonical_digest() for e in engines]


def _assert_equal(digests, pinned=None):
    assert len(set(digests)) == 1, (
        "engines diverged: " + ", ".join(
            f"{e}={d[:12]}" for e, d in zip(BIT_EXACT_ENGINES, digests)
        )
    )
    if pinned is not None:
        assert digests[0] == PINNED_DIGESTS[pinned], (
            f"{pinned}: both engines moved to {digests[0][:12]}"
        )


#: absolute canonical digests of TestEngineDifferential scenarios (the
#: same on both bit-exact engines); any change to them is a behaviour
#: change, even when reference and fast still agree
PINNED_DIGESTS = {
    "base_drop": "1797630e71f42d4be34b6e491121b491070405a904f2c8771991f431a47627c4",
    "base_drain": "584c17e0e2fb47eb33082bb8bacc7b8d4798ea22dfd838f4d43fbe734acd0051",
    "base_mid_grant_3": "a08feeae30d7a93c73f6fcf4e845157abed65cc1c2415c96f2b6868f99327e60",
    "base_mid_grant_11": "c6d31d1d31b85a2efc508cc70bd035e70e2bfddf3c4c8fcee71a49220d9402c1",
    "vc_uniform": "d9ef8f61a68e7a95adc4bb4922fbbc7393b2cdb41c4e114829e3e2ad1fc324f0",
    "vc_hotspot": "cbcb95868c83a53803753fd619f244ee25e33ab53ad7bb56ad0aa819771ae194",
    "vc_duato": "70955ca2853731f76bc3e432396a9db74454c2b577292afc972d8e462f4140f4",
    "vc_faults": "e4de1ef29bba13a809afcc2ff719b695bd959bc2204de8e084730421c0dca733",
}


def _fault_runtime(topo, policy="drop", rng=42, window=(800, 2_200)):
    sched = FaultSchedule.random(
        topo, permanent_links=2, window=window, rng=rng
    )
    ctrl = ReconfigurationController(
        lambda sub: build_down_up_routing(sub, rng=7), drain_clocks=64
    )
    return FaultRuntime(sched, ctrl, retry=RetryPolicy(), policy=policy)


class TestEngineDifferential:
    """Golden differential scenarios: digests must match exactly."""

    @pytest.fixture(scope="class")
    def net(self):
        topo = random_irregular_topology(24, 4, rng=9)
        return topo, build_down_up_routing(topo, rng=7)

    @pytest.fixture(scope="class")
    def cfg(self):
        return SimulationConfig(
            packet_length=24,
            injection_rate=0.15,
            warmup_clocks=600,
            measure_clocks=3_000,
            seed=17,
        )

    def test_base_uniform(self, net, cfg):
        _topo, routing = net
        _assert_equal(_digests(lambda c: WormholeSimulator(routing, c), cfg))

    def test_base_hotspot(self, net, cfg):
        topo, routing = net
        traffic = HotspotTraffic(topo.n, hotspots=(3, 11), fraction=0.3)
        _assert_equal(
            _digests(lambda c: WormholeSimulator(routing, c, traffic=traffic), cfg)
        )

    def test_base_tornado(self, net, cfg):
        topo, routing = net
        traffic = TornadoTraffic(topo.n)
        _assert_equal(
            _digests(lambda c: WormholeSimulator(routing, c, traffic=traffic), cfg)
        )

    def test_base_bitcomplement(self, net, cfg):
        topo, routing = net
        traffic = BitComplementTraffic(topo.n)
        _assert_equal(
            _digests(lambda c: WormholeSimulator(routing, c, traffic=traffic), cfg)
        )

    def test_base_up_down_routing(self, net, cfg):
        topo, _routing = net
        routing = build_up_down_routing(topo)
        _assert_equal(_digests(lambda c: WormholeSimulator(routing, c), cfg))

    @pytest.mark.parametrize("buffer_flits", [1, 4])
    def test_base_buffer_depths(self, net, cfg, buffer_flits):
        """Deep buffers change the body-advance mask; depth-1 is the
        tightest coupling between the capacity gather and the grants."""
        _topo, routing = net
        cfg = dataclasses.replace(cfg, buffer_flits=buffer_flits)
        _assert_equal(_digests(lambda c: WormholeSimulator(routing, c), cfg))

    def test_base_zero_load(self, net, cfg):
        """No traffic at all: the quiescent batched step must not drift
        the RNG stream or invent phantom movement."""
        _topo, routing = net
        cfg = dataclasses.replace(cfg, injection_rate=0.0)
        _assert_equal(_digests(lambda c: WormholeSimulator(routing, c), cfg))

    def test_base_saturation(self, net):
        """Every source always has a worm queued: maximal arbitration
        pressure, maximal request-list churn."""
        _topo, routing = net
        cfg = SimulationConfig(
            packet_length=24,
            injection_rate=1.0,
            warmup_clocks=300,
            measure_clocks=1_200,
            seed=17,
        )
        _assert_equal(_digests(lambda c: WormholeSimulator(routing, c), cfg))

    def test_base_128_switches(self):
        """The paper's network scale (128 switches)."""
        topo = random_irregular_topology(128, 4, rng=5)
        routing = build_down_up_routing(topo, rng=7)
        cfg = SimulationConfig(
            packet_length=64,
            injection_rate=0.3,
            warmup_clocks=300,
            measure_clocks=1_200,
            seed=7,
        )
        _assert_equal(_digests(lambda c: WormholeSimulator(routing, c), cfg))

    @pytest.mark.parametrize("policy", ["drop", "drain"])
    def test_base_with_fault_schedule(self, net, cfg, policy):
        """Mid-run reconfiguration: table swap + dead-channel masking
        must invalidate the fast path's decision cache and request
        memos atomically — any stale entry diverges the digest."""
        topo, routing = net

        def make(c):
            sim = WormholeSimulator(routing, c)
            sim.attach_faults(_fault_runtime(topo, policy))
            return sim

        _assert_equal(_digests(make, cfg), pinned=f"base_{policy}")

    @pytest.mark.parametrize("rng", [3, 11])
    def test_base_fault_mid_grant_window(self, net, cfg, rng):
        """Fault events landing inside active header-grant windows (the
        narrow schedule window forces kills while worms are mid-route,
        not at convenient quiescent points)."""
        topo, routing = net

        def make(c):
            sim = WormholeSimulator(routing, c)
            sim.attach_faults(
                _fault_runtime(topo, "drain", rng=rng, window=(901, 1_105))
            )
            return sim

        _assert_equal(_digests(make, cfg), pinned=f"base_mid_grant_{rng}")

    def test_vc_replicate_uniform(self, net, cfg):
        """The VC engine's reference and fast paths agree bit-for-bit."""
        _topo, routing = net
        _assert_equal(
            _digests(lambda c: VirtualChannelSimulator(routing, c, num_vcs=2), cfg),
            pinned="vc_uniform",
        )

    def test_vc_replicate_hotspot(self, net, cfg):
        topo, routing = net
        traffic = HotspotTraffic(topo.n, hotspots=(5,), fraction=0.25)
        _assert_equal(
            _digests(
                lambda c: VirtualChannelSimulator(
                    routing, c, num_vcs=2, traffic=traffic
                ),
                cfg,
            ),
            pinned="vc_hotspot",
        )

    def test_vc_duato(self, net, cfg):
        topo, routing = net
        duato = build_duato_routing(topo, routing)
        _assert_equal(
            _digests(lambda c: VirtualChannelSimulator(duato, c, num_vcs=3), cfg),
            pinned="vc_duato",
        )

    def test_vc_with_fault_schedule(self, net, cfg):
        topo, routing = net

        def make(c):
            sim = VirtualChannelSimulator(routing, c, num_vcs=2)
            sim.attach_faults(_fault_runtime(topo, "drain"))
            return sim

        _assert_equal(_digests(make, cfg), pinned="vc_faults")

    def test_sched_telemetry_only_on_fast_path(self, net, cfg):
        """The digest excludes scheduler telemetry, which only the fast
        path records — occupancy must be measured, and < 1."""
        _topo, routing = net
        ref = WormholeSimulator(routing, cfg.with_engine("reference")).run()
        fast = WormholeSimulator(routing, cfg.with_engine("fast")).run()
        assert ref.sched_clocks == 0
        assert fast.sched_clocks == cfg.measure_clocks
        assert 0.0 < fast.active_set_occupancy < 1.0

    def test_vec_telemetry_only_on_batch_engine(self, net, cfg):
        """Same for the batch core's moved-flit telemetry."""
        _topo, routing = net
        fast = WormholeSimulator(routing, cfg.with_engine("fast")).run()
        batch = WormholeSimulator(routing, cfg.with_engine("batch")).run()
        assert fast.vec_clocks == 0
        assert batch.vec_clocks == cfg.measure_clocks
        assert batch.vec_moved_flits > 0
        assert batch.vec_flits_per_clock > 0.0


@functools.lru_cache(maxsize=32)
def _small_net(n, ports, rng):
    topo = random_irregular_topology(n, ports, rng=rng)
    return topo, build_down_up_routing(topo, rng=7)


@functools.lru_cache(maxsize=32)
def _small_duato(net):
    topo, routing = _small_net(*net)
    return build_duato_routing(topo, routing)


_RANDOM_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: the scenario space shared by the base and VC random differential tests
_RANDOM_SCENARIO = dict(
    net=st.tuples(
        st.integers(6, 14), st.sampled_from([3, 4]), st.integers(0, 3)
    ),
    load=st.floats(0.0, 1.0),
    length=st.sampled_from([1, 2, 3, 8, 16]),
    buffer_flits=st.integers(1, 3),
    header_delay=st.integers(0, 2),
    hotspot=st.booleans(),
    faults=st.sampled_from([None, "drop", "drain"]),
    seed=st.integers(0, 2**31 - 1),
)


def _assert_random_scenario(
    build, net, load, length, buffer_flits, header_delay, hotspot, faults,
    seed,
):
    """Run one drawn scenario on both bit-exact engines, invariants on.

    ``build(routing, config, traffic)`` constructs the simulator.
    """
    topo, routing = _small_net(*net)
    cfg = SimulationConfig(
        packet_length=length,
        injection_rate=load,
        buffer_flits=buffer_flits,
        header_delay=header_delay,
        warmup_clocks=100,
        measure_clocks=400,
        seed=seed,
    )
    traffic = (
        HotspotTraffic(topo.n, hotspots=(0, topo.n // 2), fraction=0.4)
        if hotspot
        else None
    )
    schedule = None
    if faults is not None:
        try:
            schedule = FaultSchedule.random(
                topo, permanent_links=1, link_flaps=1, window=(60, 300),
                flap_duration=120, rng=seed,
            )
        except ValueError:
            assume(False)  # this network cannot absorb the faults

    def make(c):
        sim = build(routing, c, traffic)
        sim.enable_invariant_checks()
        if schedule is not None:
            ctrl = ReconfigurationController(
                lambda sub: build_down_up_routing(sub, rng=7), drain_clocks=16
            )
            sim.attach_faults(
                FaultRuntime(schedule, ctrl, retry=RetryPolicy(), policy=faults)
            )
        return sim

    _assert_equal(_digests(make, cfg))


@_RANDOM_SETTINGS
@given(**_RANDOM_SCENARIO)
# a drain truncation leaves a fragment whose empty tail channel must be
# released in the same clock although none of its flits can move
@example(
    net=(6, 3, 0), load=1.0, length=3, buffer_flits=1, header_delay=0,
    hotspot=False, faults="drain", seed=0,
)
def test_random_scenarios_fast_matches_reference(
    net, load, length, buffer_flits, header_delay, hotspot, faults, seed,
):
    """Reference and fast agree on random small scenarios, and the fast
    path's parked requests stay blocked on busy, registered resources."""
    _assert_random_scenario(
        lambda r, c, t: WormholeSimulator(r, c, traffic=t),
        net, load, length, buffer_flits, header_delay, hotspot, faults,
        seed,
    )


@_RANDOM_SETTINGS
@given(vcs=st.sampled_from([1, 2, 3, "duato"]), **_RANDOM_SCENARIO)
# the same drain truncation on the VC fast path: the fragment must not
# be marked quiet before its empty tail VC is released
@example(
    vcs=2, net=(6, 3, 0), load=1.0, length=3, buffer_flits=1,
    header_delay=0, hotspot=False, faults="drain", seed=2,
)
def test_random_vc_scenarios_fast_matches_reference(
    vcs, net, load, length, buffer_flits, header_delay, hotspot, faults,
    seed,
):
    """The VC engine's reference and fast paths agree on the same random
    scenarios: 1-3 replicated VCs, or Duato routing on 3 VCs (fault-free
    only — ``attach_faults`` refuses the Duato policy), and the fast
    path's parked requests stay blocked on busy, registered VCs."""
    if vcs == "duato":
        assume(faults is None)

        def build(r, c, t):
            return VirtualChannelSimulator(
                _small_duato(net), c, num_vcs=3, traffic=t
            )
    else:

        def build(r, c, t):
            return VirtualChannelSimulator(r, c, num_vcs=vcs, traffic=t)

    _assert_random_scenario(
        build, net, load, length, buffer_flits, header_delay, hotspot,
        faults, seed,
    )


def _small_cfg(**overrides):
    base = dict(
        packet_length=6,
        injection_rate=0.0,
        warmup_clocks=0,
        measure_clocks=400,
        seed=5,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestInjectionInterleaving:
    """Same-clock multi-source injection with back-to-back queues.

    The engines discover injection requests through the event wheel in
    per-source order and free an emptied source port during body
    *commit* (after arbitration), so a queued back-to-back worm first
    requests the clock after its predecessor's last flit left.
    """

    @staticmethod
    def _record(routing, cfg, engine, n):
        sim = WormholeSimulator(routing, cfg.with_engine(engine))
        pid = 0
        # three back-to-back worms at each of four sources, all queued
        # for clock 0: the wheel sees four same-clock injection
        # requests, and each port is re-requested the moment it frees
        for src in (0, 3, 7, 11):
            for _ in range(3):
                w = Worm(pid, src, (src + n // 2) % n, 6, 0)
                sim.queues[src].append(w)
                sim.worms[pid] = w  # what _generate_packets would do
                sim._wheel.wake(src)
                pid += 1
        sim.tracer = TraceRecorder(max_packets=1_000)
        stats = sim.run()
        events = tuple(
            (t.pid, t.src, t.dst, tuple(t.events)) for t in sim.tracer
        )
        return events, stats.canonical_digest()

    def test_per_worm_events_identical_across_engines(self):
        topo = random_irregular_topology(16, 4, rng=3)
        routing = build_down_up_routing(topo, rng=7)
        cfg = _small_cfg()
        ref = self._record(routing, cfg, "reference", topo.n)
        assert any(
            e[1] == "inject" for rec in ref[0] for e in rec[3]
        ), "scenario never injected — not exercising the wheel at all"
        got = self._record(routing, cfg, "fast", topo.n)
        assert got == ref, (
            "fast interleaved same-clock injections differently from "
            "the reference event wheel"
        )


class TestSteadyStreams:
    """A consuming, feeding worm with one flit in every channel repeats
    one move until its source runs dry.  The base fast path takes such a
    stream off the per-clock scan (``SimulatorCore._streams``) and
    applies its clocks lazily; each point that reads a streaming worm
    or the flit counters must see what the reference engine sees."""

    @pytest.fixture(scope="class")
    def net(self):
        topo = random_irregular_topology(24, 4, rng=9)
        return topo, build_down_up_routing(topo, rng=7)

    @staticmethod
    def _cfg(**overrides):
        base = dict(
            packet_length=64,
            injection_rate=0.3,
            warmup_clocks=700,
            measure_clocks=1_500,
            seed=23,
        )
        base.update(overrides)
        return SimulationConfig(**base)

    def test_warmup_boundary_inside_a_stream(self, net):
        _topo, routing = net
        cfg = self._cfg()
        probe = WormholeSimulator(routing, cfg)
        for _ in range(cfg.warmup_clocks):
            probe._step()  # the run() loop: no per-clock settle
        assert any(
            first < probe.clock
            for entries in probe._streams.values()
            for _w, first in entries
        ), "no stream straddles the warmup boundary"
        _assert_equal(_digests(lambda c: WormholeSimulator(routing, c), cfg))

    def test_timeline_ticks_settle_streams(self, net):
        _topo, routing = net
        cfg = self._cfg()
        results = []
        for engine in BIT_EXACT_ENGINES:
            sim = WormholeSimulator(routing, cfg.with_engine(engine))
            sim.stats.timeline_interval = 97  # ticks at arbitrary clocks
            results.append(sim.run())
        assert len(results[0].timeline) == cfg.measure_clocks // 97
        assert results[0].throughput_series() == results[1].throughput_series()
        _assert_equal([r.canonical_digest() for r in results])

    def test_invariant_mode_keeps_streams_running(self, net):
        _topo, routing = net
        outlived = []

        def make(c):
            sim = WormholeSimulator(routing, c)
            sim.enable_invariant_checks()
            if sim.engine_name == "fast":
                check = sim._check_state

                def checked():
                    check()
                    outlived.append(max(sim._streams, default=-1) > sim.clock)

                sim._check_state = checked
            return sim

        _assert_equal(_digests(make, self._cfg()))
        assert any(outlived), "no stream outlived a clock in invariant mode"

    def test_step_reads_exact_worms_and_counters(self, net):
        """The public ``step()`` settles after every clock."""
        _topo, routing = net
        cfg = self._cfg(warmup_clocks=0)
        sims = [WormholeSimulator(routing, cfg.with_engine(e)) for e in BIT_EXACT_ENGINES]
        for sim in sims:
            sim.stats.active = True

        def state(sim):
            st = sim.stats
            worms = [(w.pid, w.consumed, w.flits_at_source) for w in sim.active]
            return worms, st.channel_flits, st.consumed_flits, st.injected_flits

        streamed = 0
        for _ in range(800):
            for sim in sims:
                sim.step()
            streamed += bool(sims[-1]._streams)
            assert state(sims[0]) == state(sims[-1]), f"clock {sims[0].clock}"
        assert streamed > 100

    def test_a_stream_leaves_the_scan(self):
        """A lone 64-flit worm on 2-flit buffers: once it streams, the
        body scan stops visiting it until its source runs dry."""
        topo = Topology(4, [(0, 1), (1, 2), (2, 3)])
        routing = fixed_path_routing(topo, {(0, 3): [0, 1, 2, 3]})
        cfg = _small_cfg(packet_length=64, buffer_flits=2)
        sim = WormholeSimulator(routing, cfg)
        sim.stats.active = True
        w = Worm(0, 0, 3, 64, 0)
        sim.queues[0].append(w)
        sim.worms[0] = w
        while not w.consuming:
            sim.step()
        before = sim.stats.sched_visited_worms
        while w.t_done is None:
            sim.step()
        assert sim.stats.sched_visited_worms - before < 12

    # -- fault hooks end the streams they meet ---------------------------
    @staticmethod
    def _lone_worm(routing, engine="fast", schedule=None, policy="drop"):
        cfg = _small_cfg(packet_length=64, measure_clocks=300, seed=0)
        sim = WormholeSimulator(routing, cfg.with_engine(engine))
        if schedule is not None:
            ctrl = ReconfigurationController(
                lambda sub: build_down_up_routing(sub, rng=1), drain_clocks=16
            )
            sim.attach_faults(FaultRuntime(schedule, ctrl, policy=policy))
        sim._fault_requeue(0, 3, 64, logical_id=0, attempts=0, t_gen=0)
        return sim

    def _streaming_at(self, routing, clock):
        """The lone worm, streaming with unsettled clocks at *clock*."""
        sim = self._lone_worm(routing)
        for _ in range(clock):
            sim._step()
        ((w, first),) = [e for entries in sim._streams.values() for e in entries]
        assert first < clock
        return w

    def _run_both(self, routing, schedule, policy):
        results = [
            self._lone_worm(routing, e, schedule, policy).run()
            for e in BIT_EXACT_ENGINES
        ]
        _assert_equal([r.canonical_digest() for r in results])
        return results[-1]

    def test_drain_link_kill_truncates_a_stream(self, ring6):
        routing = build_down_up_routing(ring6, rng=1)
        w = self._streaming_at(routing, 40)
        ch = ring6.channel(w.chain[1])
        sched = FaultSchedule(
            ring6,
            [FaultEvent(cycle=40, kind="link_down", link=(ch.start, ch.sink))],
        )
        stats = self._run_both(routing, sched, "drain")
        assert stats.corrupted_deliveries == 1

    @pytest.mark.parametrize("policy", ["drop", "drain"])
    def test_switch_kill_at_a_streaming_source(self, ring6, policy):
        routing = build_down_up_routing(ring6, rng=1)
        w = self._streaming_at(routing, 40)
        sched = FaultSchedule(
            ring6, [FaultEvent(cycle=40, kind="switch_down", switch=w.src)]
        )
        stats = self._run_both(routing, sched, policy)
        assert stats.fault_drops == 1


class TestVcBudgetLoser:
    """Two headers reach switch 2 in the same clock and request its one
    output link, whose two VCs are free: the first grant spends the
    link's receive budget, so the second loses with a free candidate VC
    left.  The base engine has no link budgets; on the VC fast path such
    a loser must stay unparked and be granted the next clock."""

    @staticmethod
    def _sim(engine):
        topo = Topology(4, [(0, 2), (1, 2), (2, 3)])
        routing = fixed_path_routing(
            topo, {(0, 3): [0, 2, 3], (1, 3): [1, 2, 3]}
        )
        cfg = _small_cfg(packet_length=8, measure_clocks=100, seed=3)
        sim = VirtualChannelSimulator(routing, cfg.with_engine(engine), num_vcs=2)
        worms = [Worm(0, 0, 3, 8, 0), Worm(1, 1, 3, 8, 0)]
        for w in worms:
            sim.queues[w.src].append(w)
            sim.worms[w.pid] = w
        return sim, worms

    def test_budget_loser_stays_unparked(self):
        sim, worms = self._sim("fast")
        sim.enable_invariant_checks()
        # both inject at clock 0; their heads are routing-ready together
        for _ in range(sim._hdr_latency + 1):
            sim.step()
        out = sim.topology.channel_id(2, 3)
        winner, loser = sorted(worms, key=lambda w: -len(w.chain))
        assert sim.phys(winner.chain[0]) == out and len(loser.chain) == 1
        assert FREE in sim.vc_occ[out * 2 : out * 2 + 2]
        assert not loser.parked
        assert any(req is loser.hdr_req for req in sim._hot)
        sim.step()
        assert sim.phys(loser.chain[0]) == out

    def test_fast_matches_reference(self):
        _assert_equal(
            [self._sim(e)[0].run().canonical_digest() for e in BIT_EXACT_ENGINES]
        )


class TestEngineSelection:
    @pytest.fixture(scope="class")
    def routing(self):
        topo = random_irregular_topology(16, 4, rng=3)
        return build_down_up_routing(topo, rng=7)

    def test_engine_name_reflects_resolution(self, routing, monkeypatch):
        cfg = _small_cfg()
        # the engine field is the only selector: unset means fast, and
        # no environment variable can reroute it
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert cfg.resolved_engine == "fast"
        assert WormholeSimulator(routing, cfg).engine_name == "fast"
        for engine in ENGINES:
            sim = WormholeSimulator(routing, cfg.with_engine(engine))
            assert sim.engine_name == engine

    @pytest.mark.parametrize("engine", ["warp-drive", "vectorized"])
    def test_config_rejects_unknown_engine(self, engine):
        with pytest.raises(ValueError, match="unknown engine") as err:
            _small_cfg(engine=engine)
        for name in ENGINES:
            assert name in str(err.value)

    def test_vc_engine_refuses_relaxed_engine(self, routing):
        """The VC engine has no batched body phase: asking it for
        ``batch`` raises instead of silently running the fast path."""
        for engine in RELAXED_ENGINES:
            with pytest.raises(ValueError, match="bit-exact engines"):
                VirtualChannelSimulator(
                    routing, _small_cfg().with_engine(engine), num_vcs=2
                )


class TestUnloadedEquivalence:
    @pytest.mark.parametrize("length", [1, 8, 32])
    def test_single_packet_latency_identical(self, length):
        """No contention: both engines give the exact analytic latency.

        Driven with a hand-injected worm (the engines consume their rng
        streams differently, so generated traffic is not comparable
        packet-for-packet — aggregates are compared in the loaded tests
        below)."""
        from repro.simulator.packet import Worm

        topo = zoo.line(4)
        routing = build_up_down_routing(topo)
        cfg = SimulationConfig(
            packet_length=length, injection_rate=0.0,
            warmup_clocks=0, measure_clocks=10, seed=12,
        )
        done = []
        for sim in (
            WormholeSimulator(routing, cfg),
            VirtualChannelSimulator(routing, cfg, num_vcs=1),
        ):
            w = Worm(0, 0, 3, length, 0)
            sim.queues[0].append(w)
            for _ in range(300):
                sim.step()
                if w.t_done is not None:
                    break
            done.append((w.t_head_arrival, w.t_done, w.hops))
        assert done[0] == done[1]
        assert done[0] == (9, 9 + length - 1, 3)


class TestLoadedEquivalence:
    def test_throughput_agrees_at_moderate_load(self):
        topo = random_irregular_topology(20, 4, rng=31)
        routing = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=16, injection_rate=0.08,
            warmup_clocks=1_000, measure_clocks=4_000, seed=2,
        )
        base = simulate(routing, cfg)
        vc = simulate_vc(routing, cfg, num_vcs=1)
        assert vc.accepted_traffic == pytest.approx(
            base.accepted_traffic, rel=0.05
        )
        assert vc.average_latency == pytest.approx(
            base.average_latency, rel=0.25
        )

    def test_saturation_throughput_agrees(self):
        topo = random_irregular_topology(20, 4, rng=32)
        routing = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=16, injection_rate=1.0,
            warmup_clocks=800, measure_clocks=3_000, seed=3,
        )
        base = simulate(routing, cfg)
        vc = simulate_vc(routing, cfg, num_vcs=1)
        assert vc.accepted_traffic == pytest.approx(
            base.accepted_traffic, rel=0.15
        )

    def test_channel_usage_correlates(self):
        import numpy as np

        topo = random_irregular_topology(20, 4, rng=33)
        routing = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=16, injection_rate=0.1,
            warmup_clocks=1_000, measure_clocks=8_000, seed=4,
        )
        base = simulate(routing, cfg).channel_utilization()
        vc = simulate_vc(routing, cfg, num_vcs=1).channel_utilization()
        used = (base > 0) | (vc > 0)
        corr = np.corrcoef(base[used], vc[used])[0, 1]
        # different rng interleavings => statistical, not exact, match
        assert corr > 0.85

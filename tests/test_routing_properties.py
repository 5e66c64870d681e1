"""Property-based invariants of the routing algorithms under traffic.

Seeded-random campaigns (topology x routing algorithm x traffic
pattern) drive the fast-path engine with a :class:`TraceRecorder` and
check two properties of the *routes actually taken*, not just the
precomputed tables:

* **Turn legality**: no header ever traverses a turn the turn model
  prohibits — every observed (input channel, output channel) pair at a
  switch must be allowed, which includes the algorithm's released
  prohibited turns (pair exceptions) but nothing beyond them.

* **Acyclic taken dependencies**: the channel dependency graph
  restricted to the turns traffic actually exercised is acyclic.  This
  is the operational face of the Dally-Seitz condition — the full
  admissible graph is verified acyclic at build time, and any cycle
  among taken routes would have to be a cycle of that graph.

The hypothesis section below re-checks both properties over *random*
(topology, algorithm, traffic) triples under the batch engine, and adds
an engine shootout: for random scenarios, every bit-exact engine must
produce the identical per-worm delivery record — not just equal
aggregates, but the same packets taking the same channels at the same
clocks.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.downup import build_down_up_routing
from repro.routing.channel_graph import find_cycle
from repro.routing.lturn import build_l_turn_routing
from repro.routing.updown import build_up_down_routing
from repro.simulator import (
    BIT_EXACT_ENGINES,
    SimulationConfig,
    WormholeSimulator,
)
from repro.simulator.trace import TraceRecorder
from repro.simulator.traffic import HotspotTraffic, UniformTraffic
from repro.topology.generator import random_irregular_topology

BUILDERS = {
    "up-down": lambda topo, seed: build_up_down_routing(topo),
    "down-up": lambda topo, seed: build_down_up_routing(topo, rng=seed),
    "l-turn": lambda topo, seed: build_l_turn_routing(topo),
}


def _traced_run(topo, routing, seed, traffic=None):
    """Run a short loaded simulation and return the recorded traces."""
    cfg = SimulationConfig(
        packet_length=12,
        injection_rate=0.2,
        warmup_clocks=0,
        measure_clocks=1_500,
        seed=seed,
    )
    sim = WormholeSimulator(routing, cfg, traffic=traffic)
    sim.tracer = TraceRecorder(max_packets=50_000)
    sim.run()
    return sim.tracer


def _taken_turns(tracer):
    """All (input channel, output channel) turns headers performed."""
    turns = set()
    for trace in tracer:
        path = trace.path()
        turns.update(zip(path, path[1:]))
    return turns


def _assert_turns_legal(topo, routing, turns):
    tm = routing.turn_model
    for cin, cout in turns:
        v = topo.channel(cin).sink
        assert topo.channel(cout).start == v, (
            f"header teleported: channel {cin} sinks at {v} but "
            f"{cout} starts at {topo.channel(cout).start}"
        )
        assert tm.is_turn_allowed(v, cin, cout), (
            f"prohibited un-released turn taken at switch {v}: "
            f"{cin} -> {cout}"
        )


def _assert_taken_graph_acyclic(topo, turns):
    adj = [[] for _ in range(topo.num_channels)]
    for cin, cout in turns:
        adj[cin].append(cout)
    cycle = find_cycle(adj)
    assert cycle is None, f"taken routes close a dependency cycle: {cycle}"


@pytest.mark.parametrize("algo", sorted(BUILDERS))
@pytest.mark.parametrize("seed", [11, 12, 13])
class TestTakenRouteProperties:
    def _campaign(self, algo, seed):
        topo = random_irregular_topology(18, 4, rng=seed)
        routing = BUILDERS[algo](topo, seed)
        if seed % 2:
            traffic = HotspotTraffic(topo.n, hotspots=(seed % topo.n,), fraction=0.3)
        else:
            traffic = UniformTraffic(topo.n)
        tracer = _traced_run(topo, routing, seed, traffic)
        turns = _taken_turns(tracer)
        assert turns, "campaign produced no multi-hop routes"
        return topo, routing, turns

    def test_no_unreleased_prohibited_turn(self, algo, seed):
        topo, routing, turns = self._campaign(algo, seed)
        _assert_turns_legal(topo, routing, turns)

    def test_taken_dependency_graph_acyclic(self, algo, seed):
        topo, routing, turns = self._campaign(algo, seed)
        _assert_taken_graph_acyclic(topo, turns)


# ---------------------------------------------------------------------------
# hypothesis campaigns: random triples, batch engine
# ---------------------------------------------------------------------------
_PROPERTY_SETTINGS = settings(
    max_examples=8,
    deadline=None,  # flit-level simulation; wall time varies by scenario
    derandomize=True,  # CI determinism: the same examples every run
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_scenario(draw):
    """One random (topology, routing, traffic, config) scenario."""
    topo_rng = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.sampled_from([12, 16, 20]))
    algo = draw(st.sampled_from(sorted(BUILDERS)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rate = draw(st.sampled_from([0.08, 0.2, 0.5]))
    topo = random_irregular_topology(n, 4, rng=topo_rng)
    routing = BUILDERS[algo](topo, seed)
    if draw(st.booleans()):
        traffic = HotspotTraffic(
            topo.n, hotspots=(seed % topo.n,), fraction=0.3
        )
    else:
        traffic = UniformTraffic(topo.n)
    cfg = SimulationConfig(
        packet_length=draw(st.sampled_from([4, 12, 24])),
        injection_rate=rate,
        warmup_clocks=0,
        measure_clocks=500,
        seed=seed,
    )
    return topo, routing, traffic, cfg


class TestRandomTriplesVectorized:
    """Route legality of random campaigns under the numpy batch engine."""

    @_PROPERTY_SETTINGS
    @given(st.data())
    def test_turns_legal_and_taken_graph_acyclic(self, data):
        topo, routing, traffic, cfg = _random_scenario(data.draw)
        sim = WormholeSimulator(
            routing, cfg.with_engine("batch"), traffic=traffic
        )
        sim.tracer = TraceRecorder(max_packets=50_000)
        sim.run()
        turns = _taken_turns(sim.tracer)
        _assert_turns_legal(topo, routing, turns)
        _assert_taken_graph_acyclic(topo, turns)


class TestEngineShootout:
    """Random scenarios: all bit-exact engines produce the identical
    per-worm delivery record — same packets, same channels, same clocks."""

    @staticmethod
    def _delivery_record(routing, cfg, traffic, engine):
        sim = WormholeSimulator(
            routing, cfg.with_engine(engine), traffic=traffic
        )
        sim.tracer = TraceRecorder(max_packets=50_000)
        stats = sim.run()
        record = tuple(
            (t.pid, t.src, t.dst, tuple(t.events)) for t in sim.tracer
        )
        return record, stats.canonical_digest()

    @_PROPERTY_SETTINGS
    @given(st.data())
    def test_identical_per_worm_records(self, data):
        _topo, routing, traffic, cfg = _random_scenario(data.draw)
        ref = self._delivery_record(routing, cfg, traffic, "reference")
        for engine in [e for e in BIT_EXACT_ENGINES if e != "reference"]:
            got = self._delivery_record(routing, cfg, traffic, engine)
            assert got == ref, f"{engine} diverged from the reference engine"


class TestTracedPathsAreRoutes:
    """Every traced path is one the routing tables could have produced."""

    @pytest.mark.parametrize("seed", [21, 22])
    def test_paths_follow_tables(self, seed):
        topo = random_irregular_topology(16, 4, rng=seed)
        routing = build_up_down_routing(topo)
        tracer = _traced_run(topo, routing, seed)
        checked = 0
        for trace in tracer:
            path = trace.path()
            if not path:
                continue
            assert path[0] in routing.first_hops[trace.dst][trace.src]
            for cin, cout in zip(path, path[1:]):
                assert cout in routing.next_hops[trace.dst][cin]
            checked += 1
        assert checked > 0

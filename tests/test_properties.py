"""Property-based tests (hypothesis) over the whole construction stack.

The central property is the paper's Theorem 1 universalised: for *every*
random irregular topology and *every* tree method, *every* routing
algorithm in the repository yields an acyclic channel dependency graph
and full turn-restricted connectivity.  Further properties pin the
geometric invariants of the constructions and flit conservation in the
simulator.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.communication_graph import CommunicationGraph
from repro.core.coordinated_tree import TreeMethod, build_coordinated_tree
from repro.core.downup import build_down_up_routing
from repro.routing.lturn import build_l_turn_routing, build_left_right_routing
from repro.routing.updown import build_up_down_routing
from repro.routing.verification import verify_routing
from repro.simulator import SimulationConfig, WormholeSimulator
from repro.topology.generator import random_irregular_topology

BUILDERS = [
    ("down-up", lambda t, s: build_down_up_routing(t, rng=s)),
    ("down-up/m2", lambda t, s: build_down_up_routing(t, method=TreeMethod.M2, rng=s)),
    ("down-up/m3", lambda t, s: build_down_up_routing(t, method=TreeMethod.M3, rng=s)),
    ("down-up/no-phase3", lambda t, s: build_down_up_routing(t, apply_phase3=False)),
    ("l-turn", lambda t, s: build_l_turn_routing(t, rng=s)),
    ("l-turn/no-release", lambda t, s: build_l_turn_routing(t, apply_release=False)),
    ("up-down/bfs", lambda t, s: build_up_down_routing(t)),
    ("up-down/dfs", lambda t, s: build_up_down_routing(t, variant="dfs")),
    ("left-right", lambda t, s: build_left_right_routing(t, rng=s)),
]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 36),
    ports=st.sampled_from([3, 4, 8]),
)
def test_theorem1_for_every_algorithm(seed, n, ports):
    """Deadlock freedom + connectivity + progress, all builders."""
    topo = random_irregular_topology(n, ports, rng=seed)
    for _name, build in BUILDERS:
        routing = build(topo, seed)  # builders verify internally
        verify_routing(routing)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_phase3_is_monotone_improvement(seed):
    """Releasing turns can only shorten (never lengthen) shortest paths."""
    topo = random_irregular_topology(24, 4, rng=seed)
    released = build_down_up_routing(topo)
    strict = build_down_up_routing(topo, apply_phase3=False)
    n = topo.n
    for s in range(n):
        for d in range(n):
            if s != d:
                assert released.path_length(s, d) <= strict.path_length(s, d)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    method=st.sampled_from(list(TreeMethod)),
)
def test_communication_graph_direction_geometry(seed, method):
    """Direction labels encode exactly the coordinate relations."""
    topo = random_irregular_topology(20, 4, rng=seed)
    tree = build_coordinated_tree(topo, method, rng=seed)
    cg = CommunicationGraph.from_tree(tree)
    for ch in topo.channels:
        d = cg.d(ch.cid)
        dx = tree.x[ch.sink] - tree.x[ch.start]
        assert dx != 0
        if "LU" in d.name or "LD" in d.name or d.name == "L_CROSS":
            assert dx < 0
        else:
            assert dx > 0


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.data_too_large],
)
@given(
    seed=st.integers(0, 2**31 - 1),
    rate=st.floats(0.02, 0.6),
    length=st.sampled_from([1, 4, 9, 16]),
)
def test_simulator_conserves_flits(seed, rate, length):
    """Per-worm conservation every clock + global occupancy consistency
    + accounting identities at the end of a random loaded run."""
    topo = random_irregular_topology(14, 4, rng=seed)
    routing = build_down_up_routing(topo)
    cfg = SimulationConfig(
        packet_length=length,
        injection_rate=min(rate, float(length)),
        warmup_clocks=0,
        measure_clocks=800,
        seed=seed,
    )
    sim = WormholeSimulator(routing, cfg)
    sim.enable_invariant_checks()
    sim.stats.active = True
    for _ in range(800):
        sim.step()
        sim.stats.window_clocks += 1
    stats = sim.stats.finalize(sum(len(q) for q in sim.queues))
    # consumed flits never exceed generated flits
    assert stats.consumed_flits.sum() <= stats.generated_packets * length
    # all delivered latencies are positive and >= 3*hops + length - 1
    for lat, hops in zip(stats.latencies, stats.hop_counts):
        assert lat >= 3 * hops + length - 1
    # channel occupancy mirrors live chains exactly
    held = {cid for w in sim.active for cid in w.chain}
    occupied = {
        c for c, pid in enumerate(sim.channel_occ) if pid != -1
    }
    assert held == occupied


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_routing_function_candidates_consistent(seed):
    """Candidate sets always sit at the right switch and decrease dist."""
    topo = random_irregular_topology(18, 4, rng=seed)
    r = build_l_turn_routing(topo)
    for d in range(topo.n):
        for s in range(topo.n):
            for c in r.candidates(None, s, d):
                assert topo.channel(c).start == s
        for c in range(topo.num_channels):
            node = topo.channel(c).sink
            for nxt in r.candidates(c, node, d):
                assert topo.channel(nxt).start == node


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_routing_serialization_roundtrip_property(seed):
    """Any constructed routing survives a JSON round-trip verbatim."""
    import numpy as np

    from repro.routing.serialization import routing_from_json, routing_to_json

    topo = random_irregular_topology(14, 4, rng=seed)
    original = build_down_up_routing(topo)
    back = routing_from_json(routing_to_json(original))
    assert back.next_hops == original.next_hops
    assert back.first_hops == original.first_hops
    assert np.array_equal(back.dist, original.dist)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    vcs=st.sampled_from([1, 2, 3]),
)
def test_vc_engine_conservation_property(seed, vcs):
    """Flit conservation + occupancy consistency under the VC engine."""
    from repro.simulator.vc_engine import VirtualChannelSimulator

    topo = random_irregular_topology(12, 4, rng=seed)
    routing = build_down_up_routing(topo)
    cfg = SimulationConfig(
        packet_length=6,
        injection_rate=0.25,
        warmup_clocks=0,
        measure_clocks=600,
        seed=seed,
    )
    sim = VirtualChannelSimulator(routing, cfg, num_vcs=vcs)
    sim.enable_invariant_checks()
    sim.stats.active = True
    for _ in range(600):
        sim.step()
        sim.stats.window_clocks += 1
    held = {vc for w in sim.active for vc in w.chain}
    occupied = {vc for vc, pid in enumerate(sim.vc_occ) if pid != -1}
    assert held == occupied


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_static_load_conservation_property(seed):
    """Total expected load equals the sum of all-pairs path lengths."""
    from repro.analysis.static_load import expected_channel_load

    topo = random_irregular_topology(12, 4, rng=seed)
    routing = build_l_turn_routing(topo, rng=seed)
    load = expected_channel_load(routing)
    n = topo.n
    expected = sum(
        routing.path_length(s, d) for s in range(n) for d in range(n) if s != d
    )
    assert abs(load.sum() - expected) < 1e-6

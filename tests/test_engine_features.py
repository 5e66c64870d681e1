"""Tests for engine features: the throughput timeline."""

from repro.core.downup import build_down_up_routing
from repro.simulator import SimulationConfig, WormholeSimulator, simulate
from repro.topology import zoo
from repro.topology.generator import random_irregular_topology


class TestTimeline:
    def test_disabled_by_default(self):
        topo = zoo.line(3)
        r = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=4, injection_rate=0.1,
            warmup_clocks=50, measure_clocks=300, seed=1,
        )
        stats = simulate(r, cfg)
        assert stats.timeline == ()
        import math

        assert math.isnan(stats.throughput_stability())

    def test_series_and_stability(self):
        topo = random_irregular_topology(16, 4, rng=2)
        r = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=8, injection_rate=0.1,
            warmup_clocks=500, measure_clocks=3_000, seed=2,
        )
        sim = WormholeSimulator(r, cfg)
        sim.stats.timeline_interval = 500
        stats = sim.run()
        series = stats.throughput_series()
        assert len(series) == 6
        # each interval's rate is near the offered load (steady state)
        rates = [v for _t, v in series]
        assert all(0.0 < v < 0.3 for v in rates)
        assert stats.throughput_stability() < 1.0

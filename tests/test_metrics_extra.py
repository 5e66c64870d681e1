"""Tests for direction-flow metrics, root strategies and saturation search."""

import numpy as np
import pytest

from repro.analysis.static_load import expected_channel_load
from repro.core.coordinated_tree import build_coordinated_tree, choose_root
from repro.core.downup import build_down_up_routing
from repro.metrics.direction_flow import direction_flow_shares, tree_link_share
from repro.metrics.saturation import find_saturation_point
from repro.routing.updown import build_up_down_routing
from repro.simulator import SimulationConfig
from repro.topology import zoo
from repro.topology.generator import random_irregular_topology


class TestDirectionFlow:
    def test_shares_sum_to_one(self, medium_irregular):
        r = build_down_up_routing(medium_irregular)
        load = expected_channel_load(r)
        shares = direction_flow_shares(r, load)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert set(shares) == set(r.turn_model.class_names)

    def test_zero_traffic(self, small_irregular):
        r = build_down_up_routing(small_irregular)
        shares = direction_flow_shares(
            r, np.zeros(small_irregular.num_channels)
        )
        assert all(v == 0.0 for v in shares.values())

    def test_length_validated(self, small_irregular):
        r = build_down_up_routing(small_irregular)
        with pytest.raises(ValueError):
            direction_flow_shares(r, np.zeros(3))

    def test_down_up_uses_less_up_tree_than_up_down(self):
        """The design goal, measured: DOWN/UP routes a smaller share of
        its traffic over tree links than up*/down* does."""
        wins = 0
        for seed in range(5):
            topo = random_irregular_topology(28, 4, rng=seed)
            tree = build_coordinated_tree(topo)
            du = build_down_up_routing(topo, tree=tree)
            ud = build_up_down_routing(topo, tree=tree)
            du_share = tree_link_share(du, expected_channel_load(du), tree)
            ud_share = tree_link_share(ud, expected_channel_load(ud), tree)
            wins += du_share <= ud_share
        assert wins >= 4

    def test_tree_link_share_bounds(self, medium_irregular):
        r = build_down_up_routing(medium_irregular)
        tree = r.meta["tree"]
        share = tree_link_share(r, expected_channel_load(r), tree)
        assert 0.0 < share < 1.0

    def test_pure_tree_share_is_one(self):
        topo = zoo.binary_tree(4)
        r = build_down_up_routing(topo)
        tree = r.meta["tree"]
        assert tree_link_share(r, expected_channel_load(r), tree) == pytest.approx(1.0)


class TestChooseRoot:
    def test_smallest_id(self, medium_irregular):
        assert choose_root(medium_irregular, "smallest-id") == 0

    def test_max_degree(self):
        topo = zoo.star(5)
        assert choose_root(topo, "max-degree") == 0
        # invert: make node 3 the hub
        from repro.topology.graph import Topology

        topo2 = Topology(5, [(3, 0), (3, 1), (3, 2), (3, 4), (0, 1)])
        assert choose_root(topo2, "max-degree") == 3

    def test_center_of_a_line(self):
        assert choose_root(zoo.line(7), "center") == 3

    def test_unknown_strategy(self, small_irregular):
        with pytest.raises(ValueError, match="unknown root strategy"):
            choose_root(small_irregular, "nope")

    def test_center_root_minimises_depth(self, medium_irregular):
        c = choose_root(medium_irregular, "center")
        depth_center = build_coordinated_tree(medium_irregular, root=c).depth
        depth_default = build_coordinated_tree(medium_irregular).depth
        assert depth_center <= depth_default

    def test_routing_works_from_any_root_strategy(self, medium_irregular):
        for strategy in ("smallest-id", "max-degree", "center"):
            root = choose_root(medium_irregular, strategy)
            tree = build_coordinated_tree(medium_irregular, root=root)
            build_down_up_routing(medium_irregular, tree=tree)  # verifies


class TestSaturationSearch:
    def test_finds_knee_between_grid_points(self):
        topo = random_irregular_topology(20, 4, rng=3)
        r = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=16, warmup_clocks=400, measure_clocks=1_500, seed=1
        )
        knee = find_saturation_point(r, cfg, max_iterations=6)
        # the knee keeps up with its own offered load...
        assert knee.accepted >= 0.9 * knee.offered
        # ...and is in a plausible band for this size of network
        assert 0.02 < knee.offered < 0.8

    def test_respects_bounds(self):
        topo = random_irregular_topology(16, 4, rng=5)
        r = build_down_up_routing(topo)
        cfg = SimulationConfig(
            packet_length=8, warmup_clocks=200, measure_clocks=600, seed=2
        )
        knee = find_saturation_point(r, cfg, lo=0.0, hi=0.04, max_iterations=4)
        assert knee.offered <= 0.04


class TestZeroDeliveredSentinels:
    """Total-loss windows (aggressive fault schedules) must not raise.

    Campaign code records sentinel values — ``nan`` latencies, ratio
    fallbacks — for a run in which no packet was delivered, instead of
    dying on a ZeroDivisionError mid-campaign.
    """

    def _empty_stats(self, small_irregular):
        from repro.simulator.stats import StatsCollector

        collector = StatsCollector(small_irregular)
        collector.active = True
        collector.window_clocks = 100
        collector.on_generate()
        collector.on_fault_drop()
        collector.on_lost()
        return collector.finalize(queue_backlog=0)

    def test_latency_sentinels(self, small_irregular):
        import math

        stats = self._empty_stats(small_irregular)
        assert stats.delivered_packets == 0
        assert math.isnan(stats.average_latency)
        assert math.isnan(stats.p99_latency)
        assert math.isnan(stats.average_hops)
        assert stats.accepted_traffic == 0.0
        assert stats.delivered_fraction == 0.0  # one packet lost for good

    def test_degradation_report_total_loss(self, small_irregular):
        from repro.metrics.degradation import degradation_report

        report = degradation_report(self._empty_stats(small_irregular))
        assert report["delivered_fraction"] == 0.0
        assert report["lost_packets"] == 1

    def test_summary_and_ledger_record_survive(self, small_irregular, tmp_path):
        """The sentinel run round-trips through the durable ledger."""
        import math

        from repro.experiments.ledger import ResultLedger

        stats = self._empty_stats(small_irregular)
        key = ("down-up", "M1", 4, 0, 0.05)
        result = {
            "key": key,
            "accepted": stats.accepted_traffic,
            "latency": stats.average_latency,
        }
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_ok("d1", key, 1, result)
        reread = ResultLedger(path).completed["d1"]
        assert math.isnan(reread["latency"])
        assert reread["accepted"] == 0.0


class TestDiscretePercentile:
    """Regression: p99 used linear interpolation on integer latencies.

    ``np.percentile``'s default invents fractional "latencies" no
    packet ever achieved (e.g. 970.9 from the sample {10,20,30,1000});
    the pinned discrete method must always return an achieved value.
    These fail on the pre-fix code.
    """

    def _stats_with_latencies(self, small_irregular, latencies):
        from repro.simulator.stats import StatsCollector

        c = StatsCollector(small_irregular)
        c.active = True
        c.window_clocks = 100
        for lat in latencies:
            c.on_delivered(latency=lat, header_latency=lat, hops=3)
        return c.finalize(queue_backlog=0)

    def test_small_n_p99_is_achievable(self, small_irregular):
        samples = [10, 20, 30, 1000]
        stats = self._stats_with_latencies(small_irregular, samples)
        assert stats.p99_latency in samples  # pre-fix: 970.9
        assert stats.p99_latency == 1000

    def test_p99_always_a_sample_value(self, small_irregular):
        rng = np.random.default_rng(7)
        samples = [int(x) for x in rng.integers(20, 500, size=83)]
        stats = self._stats_with_latencies(small_irregular, samples)
        assert stats.p99_latency in samples
        assert float(stats.p99_latency).is_integer()

    def test_nan_sentinel_zero_delivered(self, small_irregular):
        import math

        stats = self._stats_with_latencies(small_irregular, [])
        assert math.isnan(stats.p99_latency)

    def test_degradation_report_agrees_with_stats(self, small_irregular):
        from repro.metrics.degradation import degradation_report

        samples = [10, 20, 30, 1000]
        stats = self._stats_with_latencies(small_irregular, samples)
        report = degradation_report(stats)
        assert report["p99_latency"] == stats.p99_latency

    def test_degradation_nan_sentinels(self, small_irregular):
        import math

        from repro.metrics.degradation import degradation_report

        report = degradation_report(
            self._stats_with_latencies(small_irregular, [])
        )
        assert math.isnan(report["p99_latency"])
        assert math.isnan(report["p99_reconfiguration_latency"])

    def test_helper_is_pinned_discrete(self):
        from repro.simulator.stats import PERCENTILE_METHOD, discrete_percentile

        assert PERCENTILE_METHOD == "inverted_cdf"
        assert discrete_percentile([1, 2, 3, 100], 99) == 100
        assert np.isnan(discrete_percentile([], 99))

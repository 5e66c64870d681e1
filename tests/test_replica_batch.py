"""Tests of the replica-batched simulation core and its folding.

The replica core's entire value rests on one contract — **packing
invariance**: every replica of a stacked ``run_replicated`` sweep must
produce results identical to its own sequential ``engine: batch`` run,
no matter which (or how many) siblings share the stack.  These tests
pin that contract directly:

* R-stacked vs R-sequential equality across traffic patterns, offered
  loads and packet lengths (full stats, not just fingerprints);
* independence of packing: a replica's result is unchanged between
  running alone, in a full stack, or in an arbitrary subset (the
  partial groups ledger resume produces);
* the seed-derivation scheme (``replica_seed`` / ``replica_seeds``);
* early-drain masking: quiet replicas stop costing resolve work;
* a hypothesis property randomizing (R, seed, load) over the whole
  contract;
* the experiments-runner fold: ``run_parallel`` over a replicated
  relaxed preset returns byte-identical results to per-unit execution,
  and legacy ledger identities survive the new dataclass fields.
"""

import numpy as np
import pytest

from repro.core.downup import build_down_up_routing
from repro.experiments.configs import get_preset
from repro.experiments.ledger import unit_digest
from repro.experiments.parallel import (
    WorkUnit,
    figure8_units,
    run_parallel,
    run_unit,
    run_unit_group,
)
from repro.simulator import SimulationConfig, WormholeSimulator
from repro.simulator.replica_batch import (
    ReplicaBatchCore,
    replica_seed,
    replica_seeds,
    run_replicated,
)
from repro.simulator.traffic import HotspotTraffic
from repro.topology.generator import random_irregular_topology


@pytest.fixture(scope="module")
def net():
    topo = random_irregular_topology(24, 4, rng=9)
    return topo, build_down_up_routing(topo)


def _cfg(**overrides):
    base = dict(
        packet_length=8,
        injection_rate=0.3,
        warmup_clocks=100,
        measure_clocks=500,
        seed=11,
        engine="batch",
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _sequential(routing, cfg, seeds, traffic=None):
    return [
        WormholeSimulator(routing, cfg.with_seed(s), traffic=traffic).run()
        for s in seeds
    ]


def _assert_stats_equal(a, b):
    assert a.statistical_fingerprint() == b.statistical_fingerprint()
    assert a.delivered_packets == b.delivered_packets
    assert a.latencies == b.latencies
    assert np.array_equal(
        np.asarray(a.channel_flits), np.asarray(b.channel_flits)
    )


class TestSeedDerivation:
    def test_replica_zero_keeps_base(self):
        assert replica_seed(1234, 0) == 1234
        assert replica_seed(None, 0) is None

    def test_seedless_base_stays_seedless(self):
        assert replica_seed(None, 3) is None

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            replica_seed(1, -1)

    def test_replica_seeds_distinct_and_stable(self):
        cfg = _cfg()
        seeds = replica_seeds(cfg, 5)
        assert seeds[0] == cfg.seed
        assert len(set(seeds)) == 5
        assert seeds == replica_seeds(cfg, 5)

    def test_replica_seeds_needs_one(self):
        with pytest.raises(ValueError):
            replica_seeds(_cfg(), replicas=0)


class TestStackedEqualsSequential:
    @pytest.mark.parametrize("rate", [0.1, 0.45])
    @pytest.mark.parametrize("pl", [8, 24])
    def test_uniform(self, net, rate, pl):
        _topo, routing = net
        cfg = _cfg(injection_rate=rate, packet_length=pl)
        seeds = replica_seeds(cfg, 4)
        stacked = run_replicated(routing, cfg, seeds)
        seq = _sequential(routing, cfg, seeds)
        for a, b in zip(stacked, seq):
            _assert_stats_equal(a, b)

    def test_hotspot(self, net):
        topo, routing = net
        traffic = HotspotTraffic(topo.n, hotspots=(0, topo.n // 2), fraction=0.25)
        cfg = _cfg(injection_rate=0.3)
        seeds = replica_seeds(cfg, 4)
        stacked = run_replicated(routing, cfg, seeds, traffic=traffic)
        seq = _sequential(routing, cfg, seeds, traffic=traffic)
        for a, b in zip(stacked, seq):
            _assert_stats_equal(a, b)

    def test_explicit_seed_list(self, net):
        _topo, routing = net
        seeds = [3, 77, 3021]
        stacked = run_replicated(routing, _cfg(), seeds=seeds)
        seq = _sequential(routing, _cfg(), seeds)
        for a, b in zip(stacked, seq):
            _assert_stats_equal(a, b)


class TestPackingInvariance:
    def test_replica_zero_alone_vs_stacked(self, net):
        # R=1 runs the plain loop; R=8 runs the fused driver — replica 0
        # (the base seed) must not notice the difference
        _topo, routing = net
        cfg = _cfg()
        alone = run_replicated(routing, cfg, replica_seeds(cfg, 1))[0]
        stacked = run_replicated(routing, cfg, replica_seeds(cfg, 8))[0]
        _assert_stats_equal(alone, stacked)

    def test_subset_packing(self, net):
        # the partial sibling groups ledger resume leaves behind: any
        # subset of the seed list packs to the same per-seed results
        _topo, routing = net
        seeds = replica_seeds(_cfg(), 4)
        full = run_replicated(routing, _cfg(), seeds=seeds)
        sub = run_replicated(routing, _cfg(), seeds=[seeds[1], seeds[3]])
        _assert_stats_equal(sub[0], full[1])
        _assert_stats_equal(sub[1], full[3])

    def test_distinct_seeds_give_distinct_results(self, net):
        _topo, routing = net
        cfg = _cfg()
        stacked = run_replicated(routing, cfg, replica_seeds(cfg, 4))
        prints = {s.statistical_fingerprint() for s in stacked}
        assert len(prints) == 4


class TestEarlyDrainMasking:
    def test_quiet_replicas_skip_resolve(self, net):
        # at a light load most clocks have no due events in most
        # replicas; the early-drain mask must keep resolve invocations
        # far below the R * clocks a naive per-replica loop would pay
        _topo, routing = net
        cfg = _cfg(injection_rate=0.02, packet_length=24)
        sims = [
            WormholeSimulator(routing, cfg.with_engine("batch").with_seed(s))
            for s in replica_seeds(cfg, 8)
        ]
        core = ReplicaBatchCore(sims)
        stats = core.run()
        total_clocks = cfg.warmup_clocks + cfg.measure_clocks
        assert all(s.delivered_packets > 0 for s in stats)
        # measured ~780 of the naive 4800 at this load; gate at half
        assert core.resolve_calls < 8 * total_clocks / 2


class TestHypothesisContract:
    @pytest.mark.parametrize("seed", [0])
    def test_randomized_packing(self, net, seed):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        _topo, routing = net

        @hypothesis.settings(
            max_examples=4,
            deadline=None,
            suppress_health_check=[hypothesis.HealthCheck.too_slow],
        )
        @hypothesis.given(
            replicas=st.integers(min_value=2, max_value=5),
            base_seed=st.integers(min_value=0, max_value=2**31 - 1),
            rate=st.sampled_from([0.08, 0.3, 0.6]),
        )
        def check(replicas, base_seed, rate):
            cfg = _cfg(
                seed=base_seed,
                injection_rate=rate,
                warmup_clocks=50,
                measure_clocks=250,
            )
            seeds = replica_seeds(cfg, replicas)
            stacked = run_replicated(routing, cfg, seeds)
            seq = _sequential(routing, cfg, seeds)
            for a, b in zip(stacked, seq):
                assert (
                    a.statistical_fingerprint() == b.statistical_fingerprint()
                )

        check()


class TestExperimentsFold:
    @pytest.fixture(scope="class")
    def preset(self):
        return get_preset("tiny").scaled(engine="batch", replicas=3)

    @pytest.fixture(scope="class")
    def units(self, preset):
        return figure8_units(preset, 4, methods=("M1",), algorithms=("l-turn",))

    def test_folded_equals_unfolded(self, units):
        baseline = [run_unit(u) for u in units]
        folded = run_parallel(units, max_workers=1)
        assert folded == baseline

    def test_partial_group_folds(self, units):
        sub = [u for u in units if u.replica != 1]
        assert run_parallel(sub, max_workers=1) == [run_unit(u) for u in sub]

    def test_run_unit_group_matches_members(self, units):
        grp = [u for u in units if u.rate == units[0].rate]
        assert run_unit_group(grp) == [run_unit(u) for u in grp]

    def test_bit_exact_group_falls_back(self):
        # folding is a relaxed-engine optimisation; a bit-exact group
        # must still execute (member by member) with identical results
        preset = get_preset("tiny").scaled(replicas=2)
        units = figure8_units(preset, 4, methods=("M1",), algorithms=("l-turn",))
        grp = [u for u in units if u.rate == units[0].rate]
        assert run_unit_group(grp) == [run_unit(u) for u in grp]

    def test_serial_figure8_expands_replicas(self, preset, units):
        # regression: the workers=1 figure8 path must route replicated
        # presets through the unit runner — the inline sweep knows
        # nothing about replicas and would silently run each cell once,
        # making workers=1 artefacts diverge from workers=2
        from repro.experiments.figure8 import run_figure8

        serial = run_figure8(
            preset, 4, methods=("M1",), algorithms=("l-turn",), workers=1
        )
        pooled = run_figure8(
            preset, 4, methods=("M1",), algorithms=("l-turn",), workers=2
        )
        assert len(serial.raw) == len(units)  # one row per replica unit
        assert serial.to_csv() == pooled.to_csv()

    def test_replica_keys_and_ledger_records(self, units, tmp_path):
        from repro.experiments.ledger import ResultLedger

        keys = [u.key() for u in units]
        assert keys[0] == ("l-turn", "M1", 4, 0, 0.05)  # legacy 5-tuple
        assert keys[1] == ("l-turn", "M1", 4, 0, 0.05, 1)
        ledger = ResultLedger(tmp_path / "ledger.jsonl", resume=True)
        try:
            first = run_parallel(units, max_workers=1, ledger=ledger)
        finally:
            ledger.close()
        # one record per member unit, and a resume replays all of them
        ledger = ResultLedger(tmp_path / "ledger.jsonl", resume=True)
        msgs = []
        try:
            resumed = run_parallel(
                units, max_workers=1, ledger=ledger, progress=msgs.append
            )
        finally:
            ledger.close()
        assert resumed == first
        assert len(msgs) == len(units)
        assert all("resumed" in m for m in msgs)


class TestLedgerIdentity:
    def test_legacy_digests_unchanged(self):
        # golden pins: units predating replication must keep the exact
        # digests their ledgers were written with (replica/replicas at
        # defaults are stripped from the hashed payload)
        classic = WorkUnit(get_preset("tiny"), 4, 0, "l-turn", "M1", 0.05)
        assert unit_digest(classic) == (
            "6b4565f2ffbd25a9fff14ba251edef95"
            "b2098f978aff1563925b944df0378b4b"
        )
        batch = WorkUnit(
            get_preset("tiny").scaled(engine="batch"), 4, 0, "l-turn", "M1", 0.05
        )
        assert unit_digest(batch) == (
            "258b192e3c40e663a8461f2b4d6610cf"
            "16bc7518009099418dec0432e2654215"
        )

    def test_replicated_digests_distinct(self):
        preset = get_preset("tiny").scaled(engine="batch", replicas=3)
        mk = lambda rep: WorkUnit(preset, 4, 0, "l-turn", "M1", 0.05, replica=rep)
        unreplicated = WorkUnit(
            get_preset("tiny").scaled(engine="batch"), 4, 0, "l-turn", "M1", 0.05
        )
        digests = {unit_digest(mk(0)), unit_digest(mk(1)), unit_digest(mk(2))}
        assert len(digests) == 3
        assert unit_digest(unreplicated) not in digests

    def test_seed_matches_fold_scheme(self):
        # run_unit's per-replica seed must be exactly what the fused
        # sweep derives, or folding would change results
        from repro.util.rng import derive_seed

        preset = get_preset("tiny").scaled(engine="batch", replicas=3)
        unit = WorkUnit(preset, 4, 0, "l-turn", "M1", 0.05, replica=2)
        base = derive_seed(preset.seed, unit.seed_salt, unit.ports, unit.sample)
        assert replica_seed(base, 2) == replica_seeds(preset.sim_config(base), 3)[2]

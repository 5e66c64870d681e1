"""Tests of the relaxed-contract batch engine.

The batch engine deliberately is NOT bit-exact — it replaces the
scalar engines' sequential RNG-replay arbitration with vectorized key
arbitration — so these tests pin what its contract actually promises:

* **determinism**: one (config, seed) always produces the same
  ``statistical_fingerprint`` (and the same full stats);
* **conservation**: flits injected/consumed/delivered balance exactly,
  per run, like any engine;
* **distributional sanity**: headline aggregates land near the
  bit-exact oracle on a paired seed (a smoke-scale proxy; the real
  certification is :mod:`repro.simulator.equivalence` / the
  ``equivalence`` CLI gate);
* **identity plumbing**: relaxed engines are excluded from digest
  equality claims — ``statistical_fingerprint`` differs from (and can
  never be confused with) ``canonical_digest``, ledger unit digests
  become engine-variant for batch units, and ``run_unit`` takes the
  engine from the preset alone;
* **certified envelope**: the engine refuses live fault schedules, the
  one input the equivalence gate never certified, while the bit-exact
  engines accept them;
* **object sync**: writing the array counts back onto the worm objects
  mid-run restores their flit accounting and leaves the arrays as
  they were;
* **telemetry exclusion**: the ``vec_*`` / ``sched_*`` counters are
  observability, not physics — neither digest reads them.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro.core.downup import build_down_up_routing
from repro.experiments import live_resilience
from repro.experiments.__main__ import main
from repro.experiments.configs import get_preset
from repro.experiments.ledger import unit_digest
from repro.experiments.parallel import WorkUnit, run_unit
from repro.faults import (
    FaultRuntime,
    FaultSchedule,
    ReconfigurationController,
    RetryPolicy,
)
from repro.simulator import SimulationConfig, WormholeSimulator
from repro.simulator.config import BIT_EXACT_ENGINES, RELAXED_ENGINES
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
        measure_clocks=600,
        seed=11,
        engine="batch",
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _run(routing, cfg):
    return WormholeSimulator(routing, cfg).run()


class TestDeterminism:
    def test_same_seed_same_fingerprint_and_stats(self, net):
        _topo, routing = net
        a = _run(routing, _cfg())
        b = _run(routing, _cfg())
        assert a.statistical_fingerprint() == b.statistical_fingerprint()
        assert a.delivered_packets == b.delivered_packets
        assert a.latencies == b.latencies
        assert np.array_equal(a.channel_flits, b.channel_flits)

    def test_different_seeds_differ(self, net):
        _topo, routing = net
        a = _run(routing, _cfg(seed=11))
        b = _run(routing, _cfg(seed=12))
        assert a.statistical_fingerprint() != b.statistical_fingerprint()

    def test_seedless_run_completes(self, net):
        # seed None draws one OS-entropy base; the run must still be
        # internally consistent even though it is not reproducible
        _topo, routing = net
        stats = _run(routing, _cfg(seed=None))
        assert stats.delivered_packets > 0


class TestConservation:
    def test_flit_totals_balance(self, net):
        topo, routing = net
        stats = _run(routing, _cfg())
        # delivered packets consumed packet_length flits each; worms
        # straddling a window edge contribute partial consumption, so
        # allow a few packets of boundary slack
        assert abs(
            int(stats.consumed_flits.sum()) - 8 * stats.delivered_packets
        ) <= 8 * 8
        # injections cover at least the delivered traffic (the rest is
        # still in flight at the window edge)
        assert stats.injected_flits.sum() >= stats.consumed_flits.sum()
        assert stats.delivered_packets > 0
        assert len(stats.latencies) == stats.delivered_packets
        assert len(stats.hop_counts) == stats.delivered_packets

    def test_invariant_checks_pass_under_load(self, net):
        _topo, routing = net
        for rate in (0.1, 0.5):
            sim = WormholeSimulator(routing, _cfg(injection_rate=rate))
            sim._check_invariants = True
            stats = sim.run()
            assert stats.delivered_packets > 0


class TestDistributionalSanity:
    """Smoke-scale proxy for the certification gate."""

    def test_aggregates_near_oracle(self, net):
        _topo, routing = net
        batch = _run(routing, _cfg())
        fast = _run(routing, _cfg(engine="fast"))
        # loose sanity bands: the CI-calibrated certification happens
        # in the equivalence gate, this only catches gross divergence
        assert batch.delivered_packets == pytest.approx(
            fast.delivered_packets, rel=0.25
        )
        assert batch.average_hops == pytest.approx(
            fast.average_hops, rel=0.15
        )
        assert batch.average_latency == pytest.approx(
            fast.average_latency, rel=0.5
        )

    def test_zero_load_latency_identical(self, net):
        # without contention the relaxed contract collapses to exact
        # timing: the *minimum* latency at each hop count is the
        # unloaded pipeline latency, a deterministic function of hops
        # and packet length that every engine must agree on exactly
        _topo, routing = net
        cfg = _cfg(injection_rate=0.02, measure_clocks=1500)
        batch = _run(routing, cfg)
        fast = _run(routing, cfg.with_engine("fast"))

        def min_latency_by_hops(stats):
            out = {}
            for h, lat in zip(stats.hop_counts, stats.latencies):
                out[h] = min(lat, out.get(h, 1 << 30))
            return out

        mb = min_latency_by_hops(batch)
        mf = min_latency_by_hops(fast)
        common = set(mb) & set(mf)
        assert common, "no overlapping hop counts delivered"
        for h in sorted(common):
            assert mb[h] == mf[h], f"unloaded latency differs at {h} hops"


class TestIdentityPlumbing:
    def test_fingerprint_never_matches_digest(self, net):
        _topo, routing = net
        stats = _run(routing, _cfg())
        assert stats.statistical_fingerprint().startswith("stat1-")
        assert stats.statistical_fingerprint() != stats.canonical_digest()

    def test_engine_sets(self):
        assert "batch" in RELAXED_ENGINES
        assert "batch" not in BIT_EXACT_ENGINES
        assert set(BIT_EXACT_ENGINES) == {"reference", "fast"}

    def test_unit_digest_engine_variant_for_batch_only(self):
        preset = get_preset("tiny")
        unit = WorkUnit(preset, 4, 0, "down-up", "M2", 0.1)
        base = unit_digest(unit)
        for eng in BIT_EXACT_ENGINES:
            u = dataclasses.replace(
                unit, preset=preset.scaled(engine=eng)
            )
            assert unit_digest(u) == base, (
                f"bit-exact engine {eng!r} must not change the unit digest"
            )
        batch_unit = dataclasses.replace(
            unit, preset=preset.scaled(engine="batch")
        )
        assert unit_digest(batch_unit) != base, (
            "a relaxed-engine unit must never share a bit-exact ledger key"
        )

    def test_run_unit_rejects_env_selected_batch(self, monkeypatch):
        # the preset is the only engine source: an engine named in the
        # environment is never used, so it can never put a relaxed
        # result under a bit-exact ledger identity
        preset = get_preset("tiny")
        unit = WorkUnit(preset, 4, 0, "down-up", "M2", 0.1)
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        res = run_unit(unit)
        assert "equivalence" not in res
        assert "fingerprint" not in res

    def test_run_unit_tags_pinned_batch_results(self):
        preset = get_preset("tiny").scaled(engine="batch")
        unit = WorkUnit(preset, 4, 0, "down-up", "M2", 0.1)
        res = run_unit(unit)
        assert res["equivalence"] == "statistical"
        assert res["fingerprint"].startswith("stat1-")

    def test_run_unit_untagged_for_bit_exact(self):
        preset = get_preset("tiny").scaled(engine="reference")
        unit = WorkUnit(preset, 4, 0, "down-up", "M2", 0.1)
        res = run_unit(unit)
        assert "equivalence" not in res
        assert "fingerprint" not in res


class TestEngineHooks:
    def test_mid_run_sync_roundtrip(self, net):
        """sync mid-run restores the objects and leaves the arrays be."""
        _topo, routing = net
        cfg = _cfg()
        sim = WormholeSimulator(routing, cfg)
        sim.stats.active = True  # zero warmup: replicate run()'s driver
        for _ in range(200):
            sim.step()
            sim.stats.window_clocks += 1
        core = sim._vec
        st = core.state
        flits = st.flits.copy()
        occ = st.occ.copy()
        core.sync()
        for w in sim.active:
            assert (
                w.consumed + w.flits_at_source + sum(w.chain_flits)
                == w.length
            )
        assert np.array_equal(st.flits, flits)
        assert np.array_equal(st.occ, occ)
        while sim.clock < cfg.total_clocks:
            sim.step()
            sim.stats.window_clocks += 1
        stats = sim.stats.finalize(sum(len(q) for q in sim.queues))
        assert stats.delivered_packets > 0


class TestCertifiedEnvelope:
    """Live faults are outside the batch engine's certified envelope."""

    @staticmethod
    def _schedule(topo):
        return FaultSchedule.random(
            topo, permanent_links=1, window=(50, 150), rng=3
        )

    @staticmethod
    def _runtime(schedule):
        ctrl = ReconfigurationController(
            lambda sub: build_down_up_routing(sub, rng=7), drain_clocks=16
        )
        return FaultRuntime(schedule, ctrl, retry=RetryPolicy())

    def test_attach_faults_refuses_batch(self, net):
        topo, routing = net
        schedule = self._schedule(topo)
        sim = WormholeSimulator(routing, _cfg())
        with pytest.raises(ValueError, match=re.escape(str(BIT_EXACT_ENGINES))):
            sim.attach_faults(self._runtime(schedule))
        assert sim.faults is None
        for engine in BIT_EXACT_ENGINES:
            sim = WormholeSimulator(routing, _cfg(engine=engine))
            runtime = self._runtime(schedule)
            sim.attach_faults(runtime)
            assert sim.faults is runtime

    def test_live_fault_campaign_refuses_before_building(
        self, net, monkeypatch
    ):
        def no_build(*_args, **_kwargs):
            raise AssertionError("a routing was built for a refused config")

        monkeypatch.setattr(live_resilience, "_SurvivorBuilder", no_build)
        monkeypatch.setattr(live_resilience, "_cached_initial_build", no_build)
        topo, _routing = net
        with pytest.raises(ValueError, match=re.escape(str(BIT_EXACT_ENGINES))):
            live_resilience.run_live_fault_campaign(
                topo, self._schedule(topo), _cfg()
            )

    def test_cli_live_faults_batch_exits_2(self, capsys):
        code = main(
            ["live-faults", "--preset", "tiny", "--engine", "batch", "--quiet"]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("ERROR: ") and str(BIT_EXACT_ENGINES) in err


class TestEpochContract:
    """The worm objects can always be made coherent with the arrays."""

    @staticmethod
    def _loaded_sim(routing, cfg, clocks):
        sim = WormholeSimulator(routing, cfg)
        sim.stats.active = True  # zero warmup: replicate run()'s driver
        for _ in range(clocks):
            sim.step()
            sim.stats.window_clocks += 1
        assert sim.active, "scenario went idle — raise the load"
        return sim

    def test_sync_restores_worm_flit_accounting(self, net):
        _topo, routing = net
        sim = self._loaded_sim(routing, _cfg(warmup_clocks=0), 300)
        sim._vec.sync()
        for w in sim.active:
            assert w.consumed >= 0
            assert w.flits_at_source >= 0
            assert all(f >= 0 for f in w.chain_flits)
            assert w.consumed + w.flits_at_source + sum(w.chain_flits) == w.length

    def test_finalized_snapshot_is_frozen(self, net):
        """``finalize`` copies the live int64 counters: a finalized
        snapshot must not change as later clocks credit more flits."""
        _topo, routing = net
        sim = WormholeSimulator(routing, _cfg())
        stats = sim.run()
        digest = stats.canonical_digest()
        consumed = int(stats.consumed_flits.sum())
        for _ in range(700):  # keep stepping: more grants credit flits
            sim.step()
        assert int(sim.stats.consumed_flits.sum()) > consumed
        assert int(stats.consumed_flits.sum()) == consumed
        assert stats.canonical_digest() == digest


class TestTelemetryExclusion:
    """Observability counters never leak into either digest."""

    def test_vec_and_sched_counters_excluded(self, net):
        _topo, routing = net
        cfg = _cfg()
        stats = _run(routing, cfg)
        assert stats.vec_clocks == cfg.measure_clocks
        scrubbed = dataclasses.replace(
            stats,
            vec_moved_flits=0,
            vec_clocks=0,
            sched_visited_worms=1,
            sched_active_worms=1,
            sched_clocks=1,
        )
        assert scrubbed.canonical_digest() == stats.canonical_digest()
        assert (
            scrubbed.statistical_fingerprint()
            == stats.statistical_fingerprint()
        )
        # sanity: a physics field *does* change both
        bumped = dataclasses.replace(
            stats, delivered_packets=stats.delivered_packets + 1
        )
        assert bumped.canonical_digest() != stats.canonical_digest()
        assert (
            bumped.statistical_fingerprint()
            != stats.statistical_fingerprint()
        )

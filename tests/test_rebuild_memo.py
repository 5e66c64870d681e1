"""The controller's certified-rebuild memo.

Each distinct (builder, survivor topology) pair is built, verified,
certified and rechecked once per process; every install is still
remapped afresh and stamped with the certificate's digest.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import pytest

from repro.core.coordinated_tree import TreeMethod
from repro.core.downup import build_down_up_routing
from repro.experiments import artifacts, harness
from repro.experiments.live_resilience import (
    _SurvivorBuilder,
    run_live_fault_campaign,
)
from repro.faults import FaultEvent, FaultSchedule, ReconfigurationController
from repro.faults import controller as controller_mod
from repro.routing.serialization import routing_to_json
from repro.simulator import SimulationConfig
from repro.topology.generator import random_irregular_topology


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for this test alone."""
    fresh: OrderedDict = OrderedDict()
    monkeypatch.setattr(controller_mod, "_CERTIFIED", fresh)
    return fresh


@pytest.fixture(scope="module")
def topo32():
    return random_irregular_topology(32, 4, rng=3)


@pytest.fixture
def built(monkeypatch):
    """``(algorithm, switch count)`` of every L-turn and DOWN/UP build."""
    calls = []
    for alg in ("l-turn", "down-up"):
        build = harness.ALGORITHMS[alg]

        def counted(sub, *args, _build=build, _alg=alg, **kwargs):
            calls.append((_alg, sub.n))
            return _build(sub, *args, **kwargs)

        monkeypatch.setitem(harness.ALGORITHMS, alg, counted)
    return calls


class _Counting:
    """A deterministic builder that counts its calls."""

    def __init__(self, seed: int = 7) -> None:
        self.seed = seed
        self.calls = 0

    def __call__(self, sub):
        self.calls += 1
        return build_down_up_routing(sub, rng=self.seed)


class TestScheduleSharesRebuilds:
    def test_four_builds_for_twelve_rebuilds(self, topo32, memo, built):
        """A switch failure, then a flap of a link not touching it: each
        run rebuilds three times, and the flap's UP edge restores the
        first survivor.  Two policies times two algorithms make 12
        rebuilds of 4 distinct (algorithm, survivor) pairs."""
        link = next(l for l in topo32.links if 5 not in l)
        schedule = FaultSchedule(
            topo32,
            [
                FaultEvent(cycle=250, kind="switch_down", switch=5),
                FaultEvent(cycle=400, kind="link_down", link=link),
                FaultEvent(cycle=550, kind="link_up", link=link),
            ],
        )
        config = SimulationConfig(
            packet_length=16,
            injection_rate=0.02,
            warmup_clocks=200,
            measure_clocks=600,
            seed=3,
        )
        swaps = 0
        for policy in ("drop", "drain"):
            for row in run_live_fault_campaign(
                topo32, schedule, config, algorithms=("l-turn", "down-up"),
                policy=policy, seed=3,
            ):
                recs = row.stats.reconfigurations
                swaps += len(recs)
                assert all(r.verified and r.certificate_checked for r in recs)
        assert swaps == 12
        survivors = sorted(alg for alg, n in built if n < topo32.n)
        assert survivors == ["down-up", "down-up", "l-turn", "l-turn"]


class TestOneStoreInstance:
    def test_repeat_calls_read_nothing_from_disk(
        self, topo32, memo, monkeypatch, tmp_path
    ):
        """Two live-fault calls on one store share the process-bound
        instance: the second serves each algorithm's tree and routing
        from its decoded-object LRU."""
        monkeypatch.setattr(artifacts, "_PROCESS_CACHE", None)
        schedule = FaultSchedule(
            topo32, [FaultEvent(cycle=300, kind="link_down", link=topo32.links[0])]
        )
        config = SimulationConfig(
            packet_length=16, injection_rate=0.02, warmup_clocks=200,
            measure_clocks=300, seed=3,
        )
        algorithms = ("l-turn", "down-up")

        def run():
            run_live_fault_campaign(
                topo32, schedule, config, algorithms=algorithms, seed=3,
                artifact_cache=tmp_path / "store",
            )

        run()
        cache = artifacts.process_cache()
        before = cache.counters.as_dict()
        run()
        assert artifacts.process_cache() is cache
        delta = cache.counters.delta_since(before)
        assert delta["hits"] == 0 and delta["misses"] == 0
        assert delta["memory_hits"] == 2 * len(algorithms)


class TestHitEqualsColdRebuild:
    def test_hit_matches_cold_bytes_and_digest(self, topo32, memo):
        dead = ([topo32.links[0]], [5])
        builder = _Counting()
        ctrl = ReconfigurationController(builder)
        cold = ctrl.rebuild(topo32, *dead, tag="cold")
        hot = ctrl.rebuild(topo32, *dead, tag="hot")
        assert builder.calls == 1
        assert hot is not cold
        assert routing_to_json(hot) == routing_to_json(cold)
        assert hot.meta["certificate_digest"] == cold.meta["certificate_digest"]
        assert hot.meta["verified"] and hot.meta["certificate_checked"]
        assert hot.meta["reconfiguration"] == "hot"
        memo.clear()
        again = ReconfigurationController(_Counting()).rebuild(topo32, *dead)
        assert routing_to_json(again) == routing_to_json(hot)
        assert again.meta["certificate_digest"] == hot.meta["certificate_digest"]

    def test_mutated_meta_does_not_reach_the_memo(self, topo32, memo):
        ctrl = ReconfigurationController(_Counting())
        first = ctrl.rebuild(topo32, [topo32.links[0]], [])
        digest = first.meta["certificate_digest"]
        first.meta["certificate_digest"] = "sha256:forged"
        first.meta["verified"] = False
        del first.meta["tree"]
        second = ctrl.rebuild(topo32, [topo32.links[0]], [])
        assert second.meta["certificate_digest"] == digest
        assert second.meta["verified"] is True
        assert "tree" in second.meta
        assert ctrl.builder.calls == 1


class TestMemoKeys:
    def test_distinct_builders_never_share(self, topo32, memo, built):
        builders = [
            _SurvivorBuilder("down-up", TreeMethod.M2, 11),
            _SurvivorBuilder("l-turn", TreeMethod.M2, 11),
            _SurvivorBuilder("down-up", TreeMethod.M1, 11),
            _SurvivorBuilder("down-up", TreeMethod.M2, 12),
        ]
        for b in builders:
            ReconfigurationController(b).rebuild(topo32, [], [5])
        assert len(built) == 4 and len(memo) == 4
        # an equal builder is a hit, whichever controller holds it
        ReconfigurationController(
            _SurvivorBuilder("down-up", TreeMethod.M2, 11)
        ).rebuild(topo32, [], [5])
        assert len(built) == 4

    def test_evicted_entry_rebuilds_identically(self, topo32, memo, monkeypatch):
        monkeypatch.setattr(controller_mod, "REBUILD_MEMO_ENTRIES", 2)
        builder = _Counting()
        ctrl = ReconfigurationController(builder)
        first = ctrl.rebuild(topo32, [], [5])
        ctrl.rebuild(topo32, [], [6])
        ctrl.rebuild(topo32, [], [7])  # evicts the switch-5 survivor
        assert len(memo) == 2 and builder.calls == 3
        again = ctrl.rebuild(topo32, [], [5])
        assert builder.calls == 4
        assert routing_to_json(again) == routing_to_json(first)
        assert again.meta["certificate_digest"] == first.meta["certificate_digest"]


def test_concurrent_rebuilds_agree(topo32, memo, monkeypatch):
    """Threads rebuilding overlapping survivors through a memo smaller
    than their working set: no lost entry, no error, equal digests."""
    monkeypatch.setattr(controller_mod, "REBUILD_MEMO_ENTRIES", 2)
    ctrl = ReconfigurationController(_Counting())
    digests: dict = {}
    errors: list = []

    def work(order):
        try:
            for switch in order:
                r = ctrl.rebuild(topo32, [], [switch])
                digests.setdefault(switch, set()).add(r.meta["certificate_digest"])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(order,))
            for order in ([5, 6, 7], [7, 6, 5], [6, 5, 7], [5, 7, 6])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(memo) <= 2
    assert all(len(d) == 1 for d in digests.values()) and len(digests) == 3

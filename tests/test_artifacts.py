"""Tests for the content-addressed construction-artifact cache.

Covers the acceptance scenarios of the cache work: store semantics
(miss -> disk hit -> memory hit, bounded LRU, entry format), torn-write
recovery (a SIGKILLed worker mid-publication leaves a file that is
counted, ignored and overwritten — never trusted, never fatal),
multi-process concurrent population of one store, and bit-identity —
cache-served constructions must be indistinguishable from built ones,
down to the canonical digest of a full simulation run.
"""

from __future__ import annotations

import hashlib
import json
import threading

import numpy as np
import pytest

from repro.core.downup import build_down_up_routing
from repro.experiments.artifacts import (
    ARTIFACT_FORMAT,
    BUILDER_VERSION,
    ArtifactCache,
    artifact_digest,
    clear_store,
    process_cache,
    read_counters,
    set_process_cache,
    store_stats,
    topology_digest,
    tree_key_digest,
    verify_store,
)
from repro.experiments.configs import get_preset
from repro.experiments.harness import build_routings, make_topology
from repro.experiments.parallel import (
    TEST_FAULT_ENV,
    figure8_units,
    run_parallel,
)
from repro.experiments.tables import run_tables
from repro.routing.lturn import build_l_turn_routing
from repro.routing.serialization import (
    routing_from_json,
    routing_to_json,
    tree_from_json,
    tree_to_json,
)
from repro.simulator import SimulationConfig, simulate
from repro.topology.generator import random_irregular_topology
from tests.helpers import v1_routing_payload


@pytest.fixture(scope="module")
def tiny():
    return get_preset("tiny").scaled(
        warmup_clocks=100, measure_clocks=300, rates=(0.05, 0.2)
    )


@pytest.fixture(scope="module")
def units(tiny):
    # 2 algorithms x 2 rates on one sample/method
    return figure8_units(tiny, ports=4, methods=("M1",))


@pytest.fixture(scope="module")
def clean_results(units):
    return run_parallel(list(units), max_workers=1)


@pytest.fixture(autouse=True)
def _unbind_process_cache():
    # tests that route through run_parallel bind the process-global
    # cache; never leak it into the next test
    yield
    set_process_cache(None)


def _blob(cache, i, value):
    """get_or_build with a trivial string codec (store mechanics only)."""
    return cache.get_or_build(
        "blob", {"i": i}, lambda: value, lambda s: s, lambda s: s
    )


class TestStoreSemantics:
    def test_miss_then_disk_hit_then_memory_hit(self, tiny, tmp_path):
        store = tmp_path / "store"
        first = ArtifactCache(store)
        topo = make_topology(tiny, 4, 0, cache=first)
        assert first.counters.misses == 1

        # fresh instance (new process, empty LRU): checksum-verified disk hit
        second = ArtifactCache(store)
        loaded = make_topology(tiny, 4, 0, cache=second)
        assert second.counters.hits == 1 and second.counters.misses == 0
        assert loaded == topo

        # same instance again: served from the in-process LRU
        again = make_topology(tiny, 4, 0, cache=second)
        assert second.counters.memory_hits == 1
        assert again is loaded

    def test_memory_lru_is_bounded(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store", max_memory_entries=2)
        for i in range(4):
            _blob(cache, i, f"payload-{i}")
        assert len(cache._memory) == 2
        # oldest entries were evicted; they fall back to disk hits
        _blob(cache, 0, "unused")
        assert cache.counters.hits == 1 and cache.counters.misses == 4

    def test_zero_memory_entries_disables_lru(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store", max_memory_entries=0)
        _blob(cache, 1, "x")
        _blob(cache, 1, "x")
        assert cache.counters.memory_hits == 0
        assert cache.counters.misses == 1 and cache.counters.hits == 1

    def test_entry_format(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        _blob(cache, 7, "the-payload")
        digest = artifact_digest("blob", {"i": 7})
        raw = cache.entry_path(digest).read_text(encoding="utf-8")
        header_line, payload = raw.split("\n", 1)
        header = json.loads(header_line)
        assert header["format"] == ARTIFACT_FORMAT
        assert header["kind"] == "blob"
        assert header["key"] == {"i": 7}
        assert len(header["payload_sha256"]) == 64
        assert payload == "the-payload"

    def test_digest_covers_every_key_field(self):
        base = artifact_digest("topology", {"n": 16, "ports": 4, "seed": 1})
        assert base != artifact_digest("tree", {"n": 16, "ports": 4, "seed": 1})
        assert base != artifact_digest("topology", {"n": 17, "ports": 4, "seed": 1})
        assert base != artifact_digest("topology", {"n": 16, "ports": 8, "seed": 1})
        assert base != artifact_digest("topology", {"n": 16, "ports": 4, "seed": 2})
        # canonical: key order never matters
        assert base == artifact_digest("topology", {"seed": 1, "ports": 4, "n": 16})

    def test_kind_mismatch_is_a_miss(self, tmp_path):
        """One digest can never serve an entry of another kind."""
        cache = ArtifactCache(tmp_path / "store")
        _blob(cache, 1, "x")
        digest = artifact_digest("blob", {"i": 1})
        got = cache._read(digest, "routing")
        assert got is None and cache.counters.corrupt == 1


class TestTornWriteRecovery:
    def _populate_one(self, tiny, store):
        cache = ArtifactCache(store)
        topo = make_topology(tiny, 4, 0, cache=cache)
        (entry,) = [
            p for p in store.iterdir() if p.name.endswith(".json")
        ]
        return topo, entry

    def test_truncated_entry_ignored_and_overwritten(self, tiny, tmp_path):
        """SIGKILL mid-write tears the file: checksum fails, rebuild wins."""
        store = tmp_path / "store"
        topo, entry = self._populate_one(tiny, store)
        raw = entry.read_bytes()
        entry.write_bytes(raw[: len(raw) - 9])
        assert verify_store(store) == (1, [entry.name])

        cache = ArtifactCache(store)
        rebuilt = make_topology(tiny, 4, 0, cache=cache)
        assert cache.counters.corrupt == 1 and cache.counters.misses == 1
        assert rebuilt == topo
        # the rebuild republished a complete entry over the torn one
        assert entry.read_bytes() == raw
        assert verify_store(store) == (1, [])

    def test_garbage_entry_is_a_miss(self, tiny, tmp_path):
        store = tmp_path / "store"
        _, entry = self._populate_one(tiny, store)
        entry.write_text("not json, no newline", encoding="utf-8")
        cache = ArtifactCache(store)
        make_topology(tiny, 4, 0, cache=cache)
        assert cache.counters.corrupt == 1 and cache.counters.misses == 1
        assert verify_store(store) == (1, [])

    def test_orphan_tmp_file_is_invisible(self, tiny, tmp_path):
        """A worker SIGKILLed before ``os.replace`` leaves only a tmp
        file: never read as an entry, swept by ``clear_store``."""
        store = tmp_path / "store"
        self._populate_one(tiny, store)
        orphan = store / "tmp-deadbeef-12345"
        orphan.write_text("torn half-entry", encoding="utf-8")
        stats = store_stats(store)
        assert stats["entries"] == 1  # orphan not counted
        assert verify_store(store) == (1, [])
        cache = ArtifactCache(store)
        make_topology(tiny, 4, 0, cache=cache)
        assert cache.counters.hits == 1 and cache.counters.corrupt == 0
        assert clear_store(store) >= 2  # entry + orphan (+ counters/lock)
        assert not orphan.exists()

    def test_sigkilled_worker_leaves_usable_store(
        self, units, clean_results, tmp_path, monkeypatch
    ):
        """SIGKILL during populate: the campaign retries, completes with
        results identical to the uncached run, and the shared store ends
        checksum-clean (alongside the ledger WAL crash tests)."""
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:kill:1")
        store = tmp_path / "store"
        results = run_parallel(
            list(units), max_workers=2, retries=3, cache_path=store
        )
        assert results == clean_results
        checked, corrupt = verify_store(store)
        assert checked >= 4 and corrupt == []
        # worker tallies were flushed durably despite the kills
        totals = read_counters(store)
        assert totals["misses"] >= 4


class TestCountersAndInspection:
    def test_flush_is_delta_based_and_idempotent(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(store)
        _blob(cache, 1, "x")
        cache.flush_counters()
        cache.flush_counters()  # no new activity: no new line
        lines = (store / "counters.jsonl").read_text().splitlines()
        assert len(lines) == 1
        _blob(cache, 1, "x")  # memory hit
        cache.flush_counters()
        totals = read_counters(store)
        assert totals["misses"] == 1 and totals["memory_hits"] == 1

    def test_read_counters_skips_torn_tail(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(store)
        _blob(cache, 1, "x")
        cache.flush_counters()
        with open(store / "counters.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"misses": 9')  # flush killed mid-write
        assert read_counters(store)["misses"] == 1

    def test_read_counters_on_missing_store(self, tmp_path):
        assert read_counters(tmp_path / "nope")["hits"] == 0

    def test_store_stats_by_kind(self, tiny, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(store)
        topo = make_topology(tiny, 4, 0, cache=cache)
        build_routings(topo, tiny, 0, methods=("M1",), cache=cache)
        stats = store_stats(store)
        assert stats["by_kind"] == {"routing": 2, "topology": 1, "tree": 1}
        assert stats["entries"] == 4 and stats["bytes"] > 0

    def test_clear_store_empties_everything(self, tiny, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(store)
        make_topology(tiny, 4, 0, cache=cache)
        cache.flush_counters()
        assert clear_store(store) >= 2
        assert store_stats(store)["entries"] == 0
        assert read_counters(store)["misses"] == 0
        assert clear_store(tmp_path / "never-existed") == 0

    def test_process_cache_binding(self, tmp_path):
        set_process_cache(tmp_path / "a")
        first = process_cache()
        set_process_cache(tmp_path / "a")  # same root: same instance
        assert process_cache() is first
        set_process_cache(tmp_path / "b")  # new root: rebound
        assert process_cache() is not first
        set_process_cache(None)
        assert process_cache() is None

    def test_process_cache_rebinds_on_shared_tier_change(self, tmp_path):
        set_process_cache(tmp_path / "a")
        first = process_cache()
        set_process_cache(tmp_path / "a", shared=tmp_path / "shared")
        second = process_cache()
        assert second is not first
        assert second.shared_root == tmp_path / "shared"
        set_process_cache(tmp_path / "a", shared=tmp_path / "shared")
        assert process_cache() is second

    def test_serial_run_restores_caller_binding(self, units, tmp_path):
        # a storeless serial run binds an in-memory cache for itself
        # only; the caller's binding is back when it returns
        set_process_cache(tmp_path / "a")
        mine = process_cache()
        run_parallel(list(units[:1]), max_workers=1)
        assert process_cache() is mine
        set_process_cache(None)
        run_parallel(list(units[:1]), max_workers=1)
        assert process_cache() is None

    def test_flush_truncates_torn_tail_before_appending(self, tmp_path):
        """A flush SIGKILLed mid-append leaves a newline-less fragment;
        the next flush truncates it instead of fusing with it."""
        store = tmp_path / "store"
        cache = ArtifactCache(store)
        _blob(cache, 1, "x")
        cache.flush_counters()
        with open(store / "counters.jsonl", "ab") as fh:
            fh.write(b'{"hits": 999')  # torn: no trailing newline
        _blob(cache, 2, "y")
        cache.flush_counters()
        raw = (store / "counters.jsonl").read_bytes()
        assert raw.endswith(b"\n")
        lines = raw.splitlines()
        assert len(lines) == 2
        assert all(isinstance(json.loads(ln), dict) for ln in lines)
        assert read_counters(store)["misses"] == 2

    def test_verify_store_reports_counter_corruption(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(store)
        _blob(cache, 1, "x")
        cache.flush_counters()
        with open(store / "counters.jsonl", "ab") as fh:
            fh.write(b"not json\n")  # garbage line
            fh.write(b'{"torn": 1')  # torn tail
        checked, corrupt = verify_store(store)
        assert checked == 1
        assert corrupt == ["counters.jsonl (2 unreadable line(s))"]
        # the audit reports; reading still works (garbage skipped)
        assert read_counters(store)["misses"] == 1


class TestSharedTier:
    """The multi-host read-through artifact tier (``shared_root``)."""

    def test_local_build_publishes_to_shared(self, tmp_path):
        shared = tmp_path / "shared"
        a = ArtifactCache(tmp_path / "host_a", shared_root=shared)
        _blob(a, 1, "payload")
        assert a.counters.misses == 1
        assert verify_store(shared) == (1, [])

    def test_local_miss_imports_verified_shared_entry(self, tmp_path):
        shared = tmp_path / "shared"
        a = ArtifactCache(tmp_path / "host_a", shared_root=shared)
        _blob(a, 1, "payload")

        b = ArtifactCache(tmp_path / "host_b", shared_root=shared)
        # build callback must not run: the shared tier serves the entry
        got = b.get_or_build(
            "blob", {"i": 1},
            lambda: pytest.fail("shared hit must not rebuild"),
            lambda s: s, lambda s: s,
        )
        assert got == "payload"
        assert b.counters.shared_hits == 1 and b.counters.misses == 0
        # the import republished the exact verified bytes locally: a
        # third opener of host_b's store gets a plain local hit
        c = ArtifactCache(tmp_path / "host_b")
        assert _blob(c, 1, "never") == "payload"
        assert c.counters.hits == 1
        assert verify_store(tmp_path / "host_b") == (1, [])

    def test_corrupt_shared_entry_rebuilt_not_imported(self, tmp_path):
        """A bad peer can cost a rebuild, never poison results."""
        shared = tmp_path / "shared"
        a = ArtifactCache(tmp_path / "host_a", shared_root=shared)
        _blob(a, 1, "payload")
        digest = artifact_digest("blob", {"i": 1})
        entry = shared / f"{digest}.json"
        entry.write_bytes(entry.read_bytes() + b"tampered")

        b = ArtifactCache(tmp_path / "host_b", shared_root=shared)
        assert _blob(b, 1, "rebuilt") == "rebuilt"
        assert b.counters.corrupt == 1
        assert b.counters.misses == 1 and b.counters.shared_hits == 0
        # the rebuild repaired both tiers with complete verified entries
        assert verify_store(tmp_path / "host_b") == (1, [])
        assert verify_store(shared) == (1, [])


class TestBitIdentity:
    """Cache-served constructions are indistinguishable from built ones.

    Reruns two of the equivalence suite's golden scenarios with the
    routing round-tripped through the cache and compares
    ``canonical_digest`` — which hashes every simulated-physics field of
    the run, so any divergence in tables, turn model or distances shows.
    """

    CFG = SimulationConfig(
        packet_length=24,
        injection_rate=0.15,
        warmup_clocks=600,
        measure_clocks=3_000,
        seed=17,
    )

    def _cache_round_trip(self, topo, routing, alg, tmp_path):
        store = tmp_path / "store"
        # populate, then serve from a fresh instance: the decoded object
        # took the checksum-verified verify=False path under test
        ArtifactCache(store).routing(topo, "t", alg, 7, lambda: routing)
        served = ArtifactCache(store).routing(
            topo, "t", alg, 7, lambda: pytest.fail("expected a cache hit")
        )
        assert served is not routing
        assert routing_to_json(served) == routing_to_json(routing)
        return served

    def test_down_up_golden_scenario(self, tmp_path):
        topo = random_irregular_topology(24, 4, rng=9)
        built = build_down_up_routing(topo, rng=7)
        served = self._cache_round_trip(topo, built, "down-up", tmp_path)
        assert (
            simulate(served, self.CFG).canonical_digest()
            == simulate(built, self.CFG).canonical_digest()
        )

    def test_l_turn_golden_scenario(self, tmp_path):
        topo = random_irregular_topology(24, 4, rng=9)
        built = build_l_turn_routing(topo, rng=7)
        served = self._cache_round_trip(topo, built, "l-turn", tmp_path)
        assert (
            simulate(served, self.CFG).canonical_digest()
            == simulate(built, self.CFG).canonical_digest()
        )

    def test_tables_aggregate_identical_with_cache(self, tiny, tmp_path):
        """One full tables aggregate: cache off, cache cold, cache warm
        must emit byte-identical CSVs."""
        off, cold, warm = tmp_path / "off", tmp_path / "cold", tmp_path / "warm"
        store = tmp_path / "store"
        run_tables(tiny, out_dir=off)
        run_tables(tiny, out_dir=cold, artifact_cache=store)
        cold_misses = read_counters(store)["misses"]
        # a fresh instance for the warm run, so it must read the disk tier
        set_process_cache(None)
        run_tables(tiny, out_dir=warm, artifact_cache=store)
        reference = (off / "tables_simulated.csv").read_bytes()
        assert (cold / "tables_simulated.csv").read_bytes() == reference
        assert (warm / "tables_simulated.csv").read_bytes() == reference
        # the warm run was actually served by the cache and built nothing
        assert read_counters(store)["hits"] > 0
        assert read_counters(store)["misses"] == cold_misses

    def test_parallel_results_identical_with_cache(
        self, units, clean_results, tmp_path
    ):
        results = run_parallel(
            list(units), max_workers=2, cache_path=tmp_path / "store"
        )
        assert results == clean_results


class TestConcurrentPopulation:
    def test_two_pools_one_store(self, units, clean_results, tmp_path):
        """Two process pools racing to populate one store: both finish
        with correct results, the store ends consistent, and the flock
        turns duplicate publications into skips, not corruption."""
        store = tmp_path / "store"
        results = [None, None]

        def campaign(i):
            results[i] = run_parallel(
                list(units), max_workers=2, cache_path=store
            )

        threads = [
            threading.Thread(target=campaign, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] == clean_results
        assert results[1] == clean_results
        # 1 topology + 1 tree (M1) + 2 routings, all checksum-clean
        assert store_stats(store)["by_kind"] == {
            "routing": 2,
            "topology": 1,
            "tree": 1,
        }
        assert verify_store(store)[1] == []


class TestTreeCodec:
    def test_round_trip(self, tiny):
        from repro.experiments.harness import make_tree

        topo = make_topology(tiny, 4, 0)
        tree = make_tree(topo, "M1", tiny, 0)
        back = tree_from_json(tree_to_json(tree))
        assert back.root == tree.root
        assert back.parent == tree.parent
        assert back.children == tree.children
        assert (back.x, back.y) == (tree.x, tree.y)

    def test_format_tag_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            tree_from_json('{"format": "repro-tree-v0"}')

    def test_tree_key_digest_chains_topology(self, tiny):
        a = make_topology(tiny, 4, 0)
        b = random_irregular_topology(16, 4, rng=1)
        assert tree_key_digest(a, "M1", 3) != tree_key_digest(b, "M1", 3)
        assert tree_key_digest(a, "M1", 3) != tree_key_digest(a, "M2", 3)
        assert tree_key_digest(a, "M1", 3) != tree_key_digest(a, "M1", 4)
        assert tree_key_digest(a, "M1", 3) == tree_key_digest(a, "M1", 3)


def _rewrite_entry(entry, edit):
    """Edit an entry's decoded payload in place and refresh its checksum,
    so only the routing decoder can tell that the content is wrong."""
    header_line, payload = entry.read_text(encoding="utf-8").split("\n", 1)
    header = json.loads(header_line)
    data = json.loads(payload)
    edit(data)
    payload = json.dumps(data, separators=(",", ":"))
    header["payload_sha256"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    entry.write_text(json.dumps(header) + "\n" + payload, encoding="utf-8")


def _set(path, value):
    """An edit that assigns *value* at the nested index *path*."""

    def edit(data):
        target = data
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value

    return edit


class TestMalformedRoutingEntries:
    """A checksum-valid routing entry with bad content is counted
    ``corrupt`` and rebuilt, never raised out of the cache."""

    @pytest.fixture(scope="class")
    def built(self):
        topo = random_irregular_topology(32, 4, rng=7)
        routing = build_down_up_routing(topo)
        assert routing.turn_model.released_channel_pairs()
        return topo, routing

    def _entry(self, store, topo, routing):
        ArtifactCache(store).routing(topo, "t", "down-up", 0, lambda: routing)
        (entry,) = [p for p in store.iterdir() if p.name.endswith(".json")]
        return entry

    @pytest.mark.parametrize(
        "edit",
        [
            _set(["next_hops", 0, 0], -1),
            _set(["first_hops", 1, 0], 10**6),
            _set(["pair_exceptions", 0, 1], 10**6),
            lambda data: data["dist"].pop(),
            lambda data: data["next_hops"][3].pop(),
            lambda data: data["first_hops"].pop(),
            _set(["candidates", 1, 0], 10**6),
            _set(["node_overrides", "999"], [[True]]),
        ],
        ids=[
            "negative-index",
            "index-past-candidates",
            "pair-exception-channel",
            "dist-rows",
            "next-hops-row-width",
            "first-hops-rows",
            "candidate-channel",
            "node-override",
        ],
    )
    def test_counted_corrupt_and_rebuilt(self, built, edit, tmp_path):
        topo, routing = built
        store = tmp_path / "store"
        entry = self._entry(store, topo, routing)
        _rewrite_entry(entry, edit)
        assert verify_store(store) == (1, [])  # the checksum is valid
        with pytest.raises(ValueError):
            routing_from_json(entry.read_text().split("\n", 1)[1], verify=False)

        cache = ArtifactCache(store)
        served = cache.routing(topo, "t", "down-up", 0, lambda: routing)
        assert cache.counters.corrupt == 1 and cache.counters.misses == 1
        assert served.next_hops == routing.next_hops
        assert served.first_hops == routing.first_hops
        assert np.array_equal(served.dist, routing.dist)

    def test_v1_entry_misses_cleanly(self, built, tmp_path):
        """An entry written by the nested-list v1 codec is a plain miss:
        not corrupt, and still a valid entry to ``cache verify``."""
        topo, routing = built
        store = tmp_path / "store"
        v1_key = {
            "topology": topology_digest(topo),
            "tree": "t",
            "algorithm": "down-up",
            "seed": 0,
            "builder": BUILDER_VERSION,
        }
        ArtifactCache(store)._publish(
            artifact_digest("routing", v1_key),
            "routing",
            v1_key,
            v1_routing_payload(routing_to_json(routing)),
        )

        cache = ArtifactCache(store)
        served = cache.routing(topo, "t", "down-up", 0, lambda: routing)
        assert served is routing
        assert cache.counters.misses == 1
        assert cache.counters.corrupt == 0 and cache.counters.hits == 0
        assert verify_store(store) == (2, [])

"""Tests for coordinator-less multi-host campaign execution.

Covers the acceptance scenarios of the distributed-execution work:
every chaos ending — a SIGKILLed worker mid-campaign, torn or garbage
lease files, stale-lease takeover, a quarantined poison unit, two
workers populating one campaign concurrently — must end in merged
aggregates bit-identical to a single-host run, with every
non-completed unit surfaced as a :class:`UnitFailure` rather than
silently dropped.
"""

import json
import multiprocessing
import os

import pytest

from repro.experiments.artifacts import ArtifactCache, read_counters, store_stats
from repro.experiments.configs import get_preset
from repro.experiments.distributed import (
    LEASE_DIR,
    POISON_DIR,
    ShardScanner,
    WorkerConfig,
    _take_over,
    canonical_digest,
    default_worker_id,
    merge_shards,
    merge_stage,
    read_lease,
    read_poison,
    run_distributed,
    try_claim,
)
from repro.experiments.figure8 import run_figure8
from repro.experiments.harness import build_routings, make_topology
from repro.experiments.ledger import ResultLedger, unit_digest
from repro.experiments.parallel import (
    TEST_FAULT_ENV,
    figure8_units,
    run_parallel,
)


@pytest.fixture(scope="module")
def tiny():
    # trim to keep the chaos matrix fast
    return get_preset("tiny").scaled(
        warmup_clocks=100, measure_clocks=400, rates=(0.05, 0.2)
    )


@pytest.fixture(scope="module")
def units(tiny):
    # 2 algorithms x 2 rates on one sample/method
    return figure8_units(tiny, ports=4, methods=("M1",))


@pytest.fixture(scope="module")
def clean_results(units):
    return run_parallel(list(units), max_workers=1)


def fast_config(campaign_dir, worker, **kw):
    kw.setdefault("poll_interval", 0.05)
    kw.setdefault("stale_scans", 2)
    return WorkerConfig(campaign_dir=campaign_dir, worker=worker, **kw)


class TestLeasePrimitives:
    def test_claim_is_exclusive(self, tmp_path):
        path = tmp_path / "lease.json"
        assert try_claim(path, "w1", [], ("a", "M1", 4, 0, 0.05))
        assert not try_claim(path, "w2", [], ("a", "M1", 4, 0, 0.05))
        state, identity, info = read_lease(path)
        assert state == "lease"
        assert identity == ("L", "w1", 0)
        assert info["prior"] == []

    def test_read_lease_states(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert read_lease(missing)[0] == "missing"
        garbage = tmp_path / "garbage.json"
        garbage.write_bytes(b'{"worker": "w1", "coun')  # torn claim
        state, identity, info = read_lease(garbage)
        assert state == "garbage" and info is None
        # garbage identity is stable: the staleness observation applies
        assert read_lease(garbage)[1] == identity
        garbage.write_bytes(b"something else entirely")
        assert read_lease(garbage)[1] != identity

    def test_takeover_appends_dead_worker_to_prior(self, tmp_path):
        path = tmp_path / "lease.json"
        key = ("a", "M1", 4, 0, 0.05)
        try_claim(path, "w1", ["w0"], key)
        _, identity, _ = read_lease(path)
        prior = _take_over(path, identity, "w2", key, retries=3)
        assert prior == ["w0", "w1"]
        state, new_identity, info = read_lease(path)
        assert new_identity == ("L", "w2", 0)
        assert info["prior"] == ["w0", "w1"]

    def test_takeover_aborts_when_holder_renewed(self, tmp_path):
        """An identity change between observation and takeover means the
        holder is alive: the takeover must not steal the lease."""
        from repro.experiments.distributed import _lease_payload
        from repro.util.fsio import atomic_write_text

        path = tmp_path / "lease.json"
        key = ("a", "M1", 4, 0, 0.05)
        try_claim(path, "w1", [], key)
        _, stale_identity, _ = read_lease(path)
        # the "dead" holder renews (counter bumps) before the takeover
        atomic_write_text(path, _lease_payload("w1", 1, [], key))
        assert _take_over(path, stale_identity, "w2", key, retries=3) is None
        assert read_lease(path)[1] == ("L", "w1", 1)

    def test_takeover_aborts_when_lease_vanished(self, tmp_path):
        path = tmp_path / "lease.json"
        assert _take_over(
            path, ("L", "w1", 0), "w2", ("a", "M1", 4, 0, 0.05), retries=3
        ) is None
        assert not path.exists()

    def test_default_worker_id_is_fs_safe(self):
        worker = default_worker_id()
        assert worker
        assert all(c.isalnum() or c in "-_." for c in worker)


class TestShardScanner:
    def _record(self, digest, key=("a", "M1", 4, 0, 0.05)):
        return digest, key, 1, {"key": key, "accepted": 0.5, "latency": 12.25}

    def test_incremental_scan(self, tmp_path):
        with ResultLedger(tmp_path / "ledger_w1.jsonl") as led:
            led.append_ok(*self._record("d1"))
            scanner = ShardScanner(tmp_path)
            scanner.scan()
            assert set(scanner.completed) == {"d1"}
            led.append_ok(*self._record("d2"))
            led.append_failed("d3", ("b", "M1", 4, 0, 0.2), 2, "boom")
            scanner.scan()
        assert set(scanner.completed) == {"d1", "d2"}
        assert scanner.failed == {"d3": (2, "boom")}

    def test_torn_append_completes_across_scans(self, tmp_path):
        """A torn in-flight append is picked up once its newline lands."""
        with ResultLedger(tmp_path / "donor.jsonl") as led:
            led.append_ok(*self._record("d1"))
            led.append_ok(*self._record("d2"))
        raw = (tmp_path / "donor.jsonl").read_bytes()
        (tmp_path / "donor.jsonl").unlink()
        shard = tmp_path / "ledger_w1.jsonl"
        cut = raw.index(b"\n") + 10  # mid-second-record
        shard.write_bytes(raw[:cut])
        scanner = ShardScanner(tmp_path)
        scanner.scan()
        assert set(scanner.completed) == {"d1"}
        with open(shard, "ab") as fh:
            fh.write(raw[cut:])  # the append completes
        scanner.scan()
        assert set(scanner.completed) == {"d1", "d2"}

    def test_corrupt_line_freezes_that_shards_frontier(self, tmp_path):
        with ResultLedger(tmp_path / "donor.jsonl") as led:
            led.append_ok(*self._record("d1"))
            led.append_ok(*self._record("d2"))
        lines = (tmp_path / "donor.jsonl").read_bytes().splitlines(True)
        (tmp_path / "donor.jsonl").unlink()
        (tmp_path / "ledger_w1.jsonl").write_bytes(
            lines[0] + b'{"not": "a record"}\n' + lines[1]
        )
        # an intact sibling shard is unaffected
        with ResultLedger(tmp_path / "ledger_w2.jsonl") as led:
            led.append_ok(*self._record("d9"))
        scanner = ShardScanner(tmp_path)
        scanner.scan()
        scanner.scan()
        # WAL discipline: d2 sits past the corrupt region, d9 is fine
        assert set(scanner.completed) == {"d1", "d9"}


class TestMerge:
    def _append(self, path, digest, status="ok", accepted=0.5, attempt=1):
        key = ("a", "M1", 4, 0, 0.05)
        with ResultLedger(path) as led:
            if status == "ok":
                led.append_ok(
                    digest, key, attempt,
                    {"key": key, "accepted": accepted, "latency": 1.0},
                )
            else:
                led.append_failed(digest, key, attempt, "boom")

    def test_duplicate_execution_dedupes_first_shard_wins(self, tmp_path):
        """A lost takeover race executes a unit twice; the merge must
        fold the (identical) records deterministically."""
        self._append(tmp_path / "ledger_a.jsonl", "d1", accepted=0.5)
        self._append(tmp_path / "ledger_b.jsonl", "d1", accepted=0.5)
        ok, bad = merge_shards(tmp_path)
        assert set(ok) == {"d1"} and not bad
        assert ok["d1"]["accepted"] == 0.5

    def test_ok_anywhere_beats_failed_everywhere(self, tmp_path):
        self._append(tmp_path / "ledger_a.jsonl", "d1", status="failed")
        self._append(tmp_path / "ledger_b.jsonl", "d1", status="ok")
        ok, bad = merge_shards(tmp_path)
        assert set(ok) == {"d1"} and not bad

    def test_merge_stage_reports_every_unresolved_unit(
        self, tmp_path, units
    ):
        """Nothing is silently dropped: units with no ok record surface
        as UnitFailure — failed, poisoned or never-executed."""
        digests = [unit_digest(u) for u in units]
        with ResultLedger(tmp_path / "ledger_w1.jsonl") as led:
            led.append_ok(
                digests[0], units[0].key(), 1,
                {"key": units[0].key(), "accepted": 0.5, "latency": 1.0},
            )
            led.append_failed(digests[1], units[1].key(), 3, "crashed")
        (tmp_path / POISON_DIR).mkdir()
        (tmp_path / POISON_DIR / f"{digests[2]}.json").write_text(
            json.dumps(
                {
                    "digest": digests[2],
                    "key": list(units[2].key()),
                    "workers": ["w1", "w2"],
                }
            )
        )
        results, failures = merge_stage(units, tmp_path)
        assert [r["key"] for r in results] == [units[0].key()]
        assert len(failures) == 3
        by_key = {f.key: f for f in failures}
        assert by_key[units[1].key()].error == "crashed"
        assert "poisoned" in by_key[units[2].key()].error
        assert "w1" in by_key[units[2].key()].error
        assert "never executed" in by_key[units[3].key()].error


class TestSingleWorker:
    def test_matches_serial_run(self, tmp_path, units, clean_results):
        failures = []
        results = run_distributed(
            units,
            tmp_path / "stage",
            fast_config(tmp_path, "w1"),
            failures=failures,
        )
        assert results == clean_results
        assert failures == []
        # leases are cleaned up; one shard exists
        assert list((tmp_path / "stage" / LEASE_DIR).iterdir()) == []
        shards = sorted((tmp_path / "stage").glob("ledger_*.jsonl"))
        assert [p.name for p in shards] == ["ledger_w1.jsonl"]

    def test_campaign_store_serves_a_fresh_reader(
        self, tmp_path, units, clean_results
    ):
        """Workers share constructions through ``<campaign>/artifact_cache``:
        every unit's topology, tree and routing is published there, and
        a fresh store instance reads each one back from disk."""
        store = tmp_path / "artifact_cache"
        results = run_distributed(
            units, tmp_path / "stage", fast_config(tmp_path, "w1"),
            cache_path=store,
        )
        assert results == clean_results
        # 1 topology + 1 tree (M1) + 2 routings, each built once
        assert store_stats(store)["by_kind"] == {
            "routing": 2,
            "topology": 1,
            "tree": 1,
        }
        assert read_counters(store)["misses"] == 4
        reader = ArtifactCache(store)
        for unit in units:
            topology = make_topology(
                unit.preset, unit.ports, unit.sample, cache=reader
            )
            build_routings(
                topology, unit.preset, unit.sample, methods=(unit.method,),
                algorithms=(unit.algorithm,), cache=reader,
            )
        assert reader.counters.hits == 4
        assert reader.counters.misses == 0 and reader.counters.corrupt == 0

    def test_restart_resumes_own_shard(self, tmp_path, units, clean_results):
        stage = tmp_path / "stage"
        run_distributed(units[:2], stage, fast_config(tmp_path, "w1"))
        lines = []
        results = run_distributed(
            units, stage, fast_config(tmp_path, "w1"), progress=lines.append
        )
        assert results == clean_results
        # the first run's units were not re-executed: one record each
        from repro.experiments.ledger import read_records

        records = read_records(stage / "ledger_w1.jsonl")
        assert len(records) == len(units)
        assert len({r["digest"] for r in records}) == len(units)

    def test_reclaims_own_stale_lease_immediately(
        self, tmp_path, units, clean_results
    ):
        """A restarted worker takes over its own dead incarnation's
        lease without waiting out the staleness observation."""
        stage = tmp_path / "stage"
        (stage / LEASE_DIR).mkdir(parents=True)
        try_claim(
            stage / LEASE_DIR / f"{unit_digest(units[0])}.json",
            "w1", [], units[0].key(),
        )
        # stale_scans is high: only the own-lease fast path can reclaim
        # this quickly
        results = run_distributed(
            units, stage,
            fast_config(tmp_path, "w1", stale_scans=10 ** 6),
        )
        assert results == clean_results

    def test_garbage_lease_reclaimed(self, tmp_path, units, clean_results):
        """A torn/corrupt lease file (worker died mid-claim) is observed
        stable and reclaimed like a dead worker's lease."""
        stage = tmp_path / "stage"
        (stage / LEASE_DIR).mkdir(parents=True)
        lease = stage / LEASE_DIR / f"{unit_digest(units[0])}.json"
        lease.write_bytes(b'{"worker": "w9", "coun')
        lines = []
        failures = []
        results = run_distributed(
            units, stage, fast_config(tmp_path, "w2"),
            progress=lines.append, failures=failures,
        )
        assert results == clean_results
        assert failures == []
        assert any("reclaimed unreadable lease" in ln for ln in lines)

    def test_poison_quarantine(self, tmp_path, units, clean_results):
        """A unit whose lease chain names poison_after distinct dead
        workers is quarantined, not executed — and surfaces as a
        UnitFailure, never a silent drop."""
        stage = tmp_path / "stage"
        (stage / LEASE_DIR).mkdir(parents=True)
        doomed = units[1]
        try_claim(
            stage / LEASE_DIR / f"{unit_digest(doomed)}.json",
            "deadB", ["deadA"], doomed.key(),
        )
        failures = []
        lines = []
        results = run_distributed(
            units, stage, fast_config(tmp_path, "w1", poison_after=2),
            failures=failures, progress=lines.append,
        )
        expected = [r for r in clean_results if r["key"] != doomed.key()]
        assert results == expected
        assert [f.key for f in failures] == [doomed.key()]
        assert "poisoned" in failures[0].error
        assert "deadA" in failures[0].error and "deadB" in failures[0].error
        markers = read_poison(stage)
        assert set(markers) == {unit_digest(doomed)}
        assert markers[unit_digest(doomed)]["workers"] == ["deadA", "deadB"]
        assert any("POISON" in ln for ln in lines)
        # the quarantined unit's lease was released
        assert list((stage / LEASE_DIR).iterdir()) == []

    def test_failed_unit_reported_not_dropped(
        self, tmp_path, units, monkeypatch
    ):
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:raise:99")
        failures = []
        results = run_distributed(
            units, tmp_path / "stage", fast_config(tmp_path, "w1"),
            retries=1, failures=failures,
        )
        doomed = {u.key() for u in units if u.algorithm == "down-up"}
        assert {f.key for f in failures} == doomed
        assert all(f.attempts == 2 for f in failures)
        assert {r["key"] for r in results} == {
            u.key() for u in units if u.algorithm != "down-up"
        }


# -- multi-process chaos ----------------------------------------------------
#
# Worker entry points must be module-level for multiprocessing.  Each
# builds its own preset (WorkUnit presets don't need to cross process
# boundaries) and joins the shared campaign dir.


def _chaos_preset():
    return get_preset("tiny").scaled(
        warmup_clocks=100, measure_clocks=400, rates=(0.05, 0.2)
    )


def _worker_main(campaign_dir, worker, fault):
    if fault:
        os.environ[TEST_FAULT_ENV] = fault
    preset = _chaos_preset()
    cfg = WorkerConfig(
        campaign_dir=campaign_dir, worker=worker,
        poll_interval=0.05, stale_scans=3,
    )
    run_figure8(
        preset, ports=4, methods=("M1",),
        out_dir=campaign_dir / f"out_{worker}", distributed=cfg,
    )


def _spawn(campaign_dir, worker, fault=None):
    proc = multiprocessing.Process(
        target=_worker_main, args=(campaign_dir, worker, fault)
    )
    proc.start()
    return proc


class TestChaos:
    @pytest.fixture(scope="class")
    def serial_csv(self, tiny, tmp_path_factory):
        out = tmp_path_factory.mktemp("serial")
        run_figure8(tiny, ports=4, methods=("M1",), out_dir=out)
        return (out / "figure8_4port.csv").read_bytes()

    def test_two_workers_bit_identical(self, tmp_path, serial_csv):
        """Acceptance: two workers concurrently populating one campaign
        merge to aggregates byte-identical to a single-host run."""
        procs = [_spawn(tmp_path, "w1"), _spawn(tmp_path, "w2")]
        for p in procs:
            p.join(timeout=600)
        assert [p.exitcode for p in procs] == [0, 0]
        for worker in ("w1", "w2"):
            got = (tmp_path / f"out_{worker}" / "figure8_4port.csv")
            assert got.read_bytes() == serial_csv
        # both workers produced records; the union covers every unit
        stage = tmp_path / "stage_figure8_4port"
        ok, bad = merge_shards(stage)
        assert not bad
        units = figure8_units(_chaos_preset(), ports=4, methods=("M1",))
        assert set(ok) == {unit_digest(u) for u in units}
        assert list((stage / LEASE_DIR).iterdir()) == []

    def test_sigkilled_worker_survivor_finishes(self, tmp_path, serial_csv):
        """Acceptance: SIGKILL a worker mid-campaign; a survivor takes
        over its stale lease and the merged aggregates stay
        bit-identical to a clean single-host run."""
        # the doomed worker SIGKILLs itself inside its first down-up
        # unit — mid-lease, with l-turn results already in its shard
        doomed = _spawn(tmp_path, "w1", fault="down-up:kill:99")
        doomed.join(timeout=600)
        assert doomed.exitcode != 0  # died by SIGKILL, not cleanly
        stage = tmp_path / "stage_figure8_4port"
        leases = list((stage / LEASE_DIR).iterdir())
        assert len(leases) == 1  # the lease its death left behind
        _, dead_identity, dead_info = read_lease(leases[0])
        assert dead_info["worker"] == "w1"

        survivor = _spawn(tmp_path, "w2")
        survivor.join(timeout=600)
        assert survivor.exitcode == 0
        got = tmp_path / "out_w2" / "figure8_4port.csv"
        assert got.read_bytes() == serial_csv
        assert list((stage / LEASE_DIR).iterdir()) == []
        assert read_poison(stage) == {}  # one death < poison_after
        # the takeover recorded the dead worker in the survivor's claim
        # chain; no unit was lost and none ran in the doomed shard after
        # the kill
        ok, bad = merge_shards(stage)
        assert not bad
        units = figure8_units(_chaos_preset(), ports=4, methods=("M1",))
        assert set(ok) == {unit_digest(u) for u in units}

    def test_canonical_digest_stable(self):
        a = canonical_digest({"b": [1, 2], "a": float("nan")})
        b = canonical_digest({"a": float("nan"), "b": [1, 2]})
        assert a == b
        assert a != canonical_digest({"a": 0, "b": [1, 2]})


class TestWorkCLI:
    def test_work_smoke(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as cli_main

        rc = cli_main(
            [
                "work", "--campaign-dir", str(tmp_path),
                "--preset", "tiny", "--worker", "w1",
                "--no-static", "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "artefacts in" in out
        assert (tmp_path / "manifest.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["distributed"]["worker"] == "w1"
        # shards live under the stage dirs, not the campaign root
        assert (tmp_path / "stage_figure8_4port" / "ledger_w1.jsonl").exists()
        assert (tmp_path / "stage_tables" / "ledger_w1.jsonl").exists()

    def test_second_worker_skips_finished_campaign(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as cli_main

        args = [
            "work", "--campaign-dir", str(tmp_path),
            "--preset", "tiny", "--no-static", "--quiet",
        ]
        assert cli_main(args + ["--worker", "w1"]) == 0
        csv_before = (tmp_path / "figure8_4port.csv").read_bytes()
        assert cli_main(args + ["--worker", "w2"]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert (tmp_path / "figure8_4port.csv").read_bytes() == csv_before

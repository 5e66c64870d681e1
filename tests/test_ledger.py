"""Tests for the durable result ledger and crash-tolerant execution.

Covers the acceptance scenarios of the campaign-resilience work: a
worker that raises (and one that SIGKILLs itself, breaking the process
pool) must not lose sibling results; resuming from a truncated or
corrupted-tail ledger skips completed units; and a resumed run's
aggregates are bit-identical to an uninterrupted run's.
"""

import json
import math
import os
import re
import socket

import pytest

from repro.experiments.configs import get_preset
from repro.experiments.figure8 import run_figure8
from repro.experiments.ledger import (
    LEDGER_VERSION,
    LedgerLockedError,
    ResultLedger,
    read_records,
    unit_digest,
)
from repro.experiments.parallel import (
    TEST_FAULT_ENV,
    UnitFailure,
    UnitTimeout,
    WorkUnit,
    default_max_workers,
    execute_unit,
    figure8_units,
    run_parallel,
    run_unit,
)
from repro.experiments.tables import run_tables


@pytest.fixture(scope="module")
def tiny():
    # trim to keep the crash/retry matrix fast
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


class TestUnitDigest:
    def test_stable_and_hex(self, tiny):
        u = WorkUnit(tiny, 4, 0, "down-up", "M1", 0.05)
        d = unit_digest(u)
        assert d == unit_digest(WorkUnit(tiny, 4, 0, "down-up", "M1", 0.05))
        assert len(d) == 64 and int(d, 16) >= 0

    def test_distinct_across_fields(self, tiny):
        base = WorkUnit(tiny, 4, 0, "down-up", "M1", 0.05)
        variants = [
            WorkUnit(tiny, 8, 0, "down-up", "M1", 0.05),
            WorkUnit(tiny, 4, 1, "down-up", "M1", 0.05),
            WorkUnit(tiny, 4, 0, "l-turn", "M1", 0.05),
            WorkUnit(tiny, 4, 0, "down-up", "M2", 0.05),
            WorkUnit(tiny, 4, 0, "down-up", "M1", 0.2),
            WorkUnit(tiny, 4, 0, "down-up", "M1", 0.05, seed_salt=0x7AB),
        ]
        digests = {unit_digest(u) for u in variants}
        assert unit_digest(base) not in digests
        assert len(digests) == len(variants)

    def test_preset_seed_changes_digest(self, tiny):
        u1 = WorkUnit(tiny, 4, 0, "down-up", "M1", 0.05)
        u2 = WorkUnit(tiny.scaled(seed=1), 4, 0, "down-up", "M1", 0.05)
        assert unit_digest(u1) != unit_digest(u2)


class TestLedgerFile:
    def _record(self, digest="d1", key=("a", "M1", 4, 0, 0.05)):
        return digest, key, 1, {"key": key, "accepted": 0.5, "latency": 12.25}

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_ok(*self._record())
        reopened = ResultLedger(path)
        assert reopened.completed["d1"]["key"] == ("a", "M1", 4, 0, 0.05)
        assert reopened.completed["d1"]["accepted"] == 0.5
        assert reopened.attempts["d1"] == 1
        assert reopened.dropped_lines == 0
        reopened.close()

    def test_nan_sentinel_roundtrip(self, tmp_path):
        """A zero-delivery unit's nan latency survives the JSON trip."""
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_ok(
                "d1", ("a", "M1", 4, 0, 0.05), 1,
                {"key": ("a", "M1", 4, 0, 0.05), "latency": float("nan")},
            )
        reopened = ResultLedger(path)
        assert math.isnan(reopened.completed["d1"]["latency"])
        reopened.close()

    def test_truncated_tail_recovered(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_ok(*self._record("d1"))
            led.append_ok(*self._record("d2"))
        good_size = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "digest": "d3", "stat')  # torn append
        reopened = ResultLedger(path)
        assert set(reopened.completed) == {"d1", "d2"}
        # the torn tail was truncated away; appends continue cleanly
        assert path.stat().st_size == good_size
        reopened.append_ok(*self._record("d3"))
        reopened.close()
        assert set(ResultLedger(path).completed) == {"d1", "d2", "d3"}

    def test_corrupt_line_drops_rest(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_ok(*self._record("d1"))
            led.append_ok(*self._record("d2"))
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"d1"', b'"XX"', 1))  # checksum breaks
        reopened = ResultLedger(path)
        # WAL semantics: everything from the first bad record on is gone
        assert reopened.completed == {}
        assert reopened.dropped_lines == 2
        assert path.stat().st_size == 0
        reopened.close()

    def test_tampered_but_valid_json_rejected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_ok(*self._record("d1"))
        line = json.loads(path.read_text())
        line["attempt"] = 99  # valid JSON, wrong checksum
        path.write_text(json.dumps(line) + "\n")
        assert ResultLedger(path).completed == {}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_ok(*self._record("d1"))
        line = path.read_text().replace(
            f'"v":{LEDGER_VERSION}', f'"v":{LEDGER_VERSION + 1}'
        )
        path.write_text(line)
        assert ResultLedger(path).completed == {}

    def test_resume_false_truncates(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_ok(*self._record("d1"))
        fresh = ResultLedger(path, resume=False)
        assert fresh.completed == {}
        fresh.close()
        assert path.stat().st_size == 0

    def test_failed_then_ok(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_failed("d1", ("a", "M1", 4, 0, 0.05), 3, "boom")
            assert "d1" in led.failed
            led.append_ok(*self._record("d1"))
            assert "d1" not in led.failed and "d1" in led.completed
        reopened = ResultLedger(path)
        assert "d1" in reopened.completed and "d1" not in reopened.failed
        reopened.close()

    def test_result_key_order_preserved(self, tmp_path):
        """A decoded result iterates exactly like the fresh dict.

        The tables CSV serialises report-dict iteration order verbatim,
        so resume byte-identity requires the JSON round trip to keep
        insertion order (records must not be written key-sorted).
        """
        path = tmp_path / "ledger.jsonl"
        result = {
            "key": ("a", "M1", 4, 0, 1.0),
            "accepted": 0.5,
            "report": {"zeta": 1.0, "alpha": 2.0, "mid": 3.0},
        }
        with ResultLedger(path) as led:
            led.append_ok("d1", result["key"], 1, result)
            fresh_order = list(led.completed["d1"]["report"])
        reopened = ResultLedger(path)
        assert list(reopened.completed["d1"]["report"]) == fresh_order
        assert fresh_order == ["zeta", "alpha", "mid"]
        assert list(reopened.completed["d1"]) == list(result)
        reopened.close()

    def test_second_writer_locked_out(self, tmp_path):
        """A ledger has one writer; concurrent opens fail fast."""
        pytest.importorskip("fcntl")
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_ok(*self._record("d1"))
            with pytest.raises(LedgerLockedError, match="locked"):
                ResultLedger(path)
        # the lock dies with the handle: reopening afterwards is fine
        reopened = ResultLedger(path)
        assert set(reopened.completed) == {"d1"}
        reopened.close()

    def test_read_records(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            led.append_ok(*self._record("d1"))
            led.append_failed("d2", ("b", "M1", 4, 0, 0.2), 2, "boom")
        records = read_records(path)
        assert [r["digest"] for r in records] == ["d1", "d2"]
        assert [r["status"] for r in records] == ["ok", "failed"]


class TestResume:
    def test_completed_units_skipped(self, units, clean_results, tmp_path):
        path = tmp_path / "ledger.jsonl"
        # first run completes only half the units
        first = units[: len(units) // 2]
        with ResultLedger(path) as led:
            run_parallel(list(first), max_workers=1, ledger=led)
        # resumed run merges ledger results with fresh ones, input order
        lines = []
        with ResultLedger(path) as led:
            resumed = run_parallel(
                list(units), max_workers=1, ledger=led, progress=lines.append
            )
        assert resumed == clean_results
        assert sum("resumed" in ln for ln in lines) == len(first)
        # nothing was recorded twice
        digests = [r["digest"] for r in read_records(path)]
        assert len(digests) == len(set(digests)) == len(units)

    def test_resume_from_truncated_tail(self, units, clean_results, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path) as led:
            run_parallel(list(units), max_workers=1, ledger=led)
        # SIGKILL mid-append: the last record is torn
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with ResultLedger(path) as led:
            assert led.dropped_lines == 1
            assert len(led.completed) == len(units) - 1
            resumed = run_parallel(list(units), max_workers=1, ledger=led)
        assert resumed == clean_results


class TestCrashIsolation:
    def test_raising_unit_retried(self, units, clean_results, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:raise:1")
        lines = []
        results = run_parallel(
            list(units), max_workers=2, retries=2, progress=lines.append
        )
        assert results == clean_results
        assert any("attempt=2" in ln and " ok " in ln for ln in lines)
        assert any("[retry]" in ln for ln in lines)

    def test_exhausted_unit_spares_siblings(self, units, tiny,
                                            monkeypatch, tmp_path):
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:raise:99")
        path = tmp_path / "ledger.jsonl"
        lines = []
        failures = []
        with ResultLedger(path) as led:
            results = run_parallel(
                list(units), max_workers=2, retries=1,
                ledger=led, progress=lines.append, failures=failures,
            )
        # every l-turn sibling survived; the failing units are reported
        expected = [u for u in units if u.algorithm == "l-turn"]
        assert [r["key"] for r in results] == [u.key() for u in expected]
        # ... and propagated to the caller, not just progress lines
        doomed = {u.key() for u in units if u.algorithm == "down-up"}
        assert {f.key for f in failures} == doomed
        assert all(
            isinstance(f, UnitFailure) and f.attempts == 2 and f.error
            for f in failures
        )
        n_failed = len(units) - len(expected)
        assert sum("FAILED attempt=2" in ln for ln in lines) == n_failed
        led = ResultLedger(path)
        assert len(led.failed) == n_failed
        assert len(led.completed) == len(expected)
        led.close()
        # failed units are re-run (not resumed over) once the fault clears
        monkeypatch.delenv(TEST_FAULT_ENV)
        with ResultLedger(path) as led:
            healed = run_parallel(list(units), max_workers=1, ledger=led)
        assert [r["key"] for r in healed] == [u.key() for u in units]

    def test_sigkilled_worker_rebuilds_pool(self, units, clean_results,
                                            monkeypatch):
        """A dying worker fails one unit's attempt, not the campaign."""
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:kill:1")
        lines = []
        results = run_parallel(
            list(units), max_workers=2, retries=3, progress=lines.append
        )
        assert results == clean_results
        assert any("[pool] worker process died" in ln for ln in lines)
        # submission is throttled to the pool width, so a break charges
        # at most the max_workers units actually exposed to workers —
        # never the whole queue (with 2 workers, <= 1 sibling besides
        # the unit whose death was collected)
        rescheduled = [
            int(m.group(1))
            for ln in lines
            if (m := re.search(r"\((\d+) unit\(s\) rescheduled\)", ln))
        ]
        assert rescheduled and all(n <= 1 for n in rescheduled)

    def test_serial_path_retries_too(self, units, clean_results, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:raise:1")
        results = run_parallel(list(units), max_workers=1, retries=1)
        assert results == clean_results


class TestProgressAndDefaults:
    def test_default_workers_respects_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert default_max_workers() == 3

    def test_default_workers_falls_back(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_max_workers() == 5

    def test_serial_and_pool_progress_symmetric(self, units):
        serial, pooled = [], []
        two = list(units[:2])
        run_parallel(two, max_workers=1, progress=serial.append)
        run_parallel(two, max_workers=2, progress=pooled.append)
        # identical format: "[i/N] <key> ok attempt=K"; the pool may
        # finish out of order, so compare as sets of suffixes
        strip = lambda ln: ln.split("] ", 1)[1].split(" eta=")[0]
        assert {strip(ln) for ln in serial} == {strip(ln) for ln in pooled}
        assert all(" ok attempt=1" in ln for ln in serial + pooled)

    def test_eta_uses_injected_clock(self, units):
        class FakeClock:
            def __init__(self):
                self.now = 0.0

            def __call__(self):
                self.now += 10.0
                return self.now

        lines = []
        run_parallel(
            list(units[:2]), max_workers=1,
            progress=lines.append, clock=FakeClock(),
        )
        # one tick at t0, one per completion: 10s/unit, 1 unit left
        assert "eta=~10s" in lines[0]
        assert "eta=" not in lines[1]


class TestFigure8Durability:
    def test_interrupt_resume_bit_identical(self, tiny, tmp_path, monkeypatch):
        """Acceptance: interrupted + resumed == uninterrupted, byte for byte."""
        clean = run_figure8(tiny, ports=4, methods=("M1",), workers=1)
        ledger_path = tmp_path / "fig8.jsonl"
        # interruption: one algorithm's units all fail this run
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:raise:99")
        partial = run_figure8(
            tiny, ports=4, methods=("M1",), workers=2,
            ledger_path=ledger_path, retries=0,
        )
        assert len(partial.raw) < len(clean.raw)
        # the fault clears; the resumed run completes from the ledger
        monkeypatch.delenv(TEST_FAULT_ENV)
        resumed = run_figure8(
            tiny, ports=4, methods=("M1",), workers=2,
            ledger_path=ledger_path,
        )
        assert resumed.to_csv() == clean.to_csv()
        assert resumed.to_ascii() == clean.to_ascii()
        assert resumed.series == clean.series
        # the l-turn units ran exactly once across both runs
        records = read_records(ledger_path)
        ok_keys = [tuple(r["key"]) for r in records if r["status"] == "ok"]
        assert len(ok_keys) == len(set(ok_keys)) == len(clean.raw)
        # the interrupted run reported its exhausted units to the caller
        assert partial.failures and all(
            f.key[0] == "down-up" for f in partial.failures
        )
        assert resumed.failures == []


class TestTablesDurability:
    def test_interrupt_resume_bit_identical(self, tiny, tmp_path, monkeypatch):
        """Tables CSV: interrupted + resumed == uninterrupted, byte for byte.

        Regression test for resume ordering: a unit merged back from
        the ledger must emit its four metric rows in the same order as
        a freshly simulated one, or ``tables_simulated.csv`` (written
        verbatim from row order) differs between the two runs.
        """
        clean_dir = tmp_path / "clean"
        clean = run_tables(
            tiny, ports_list=(4,), methods=("M1",),
            workers=1, out_dir=clean_dir,
        )
        ledger_path = tmp_path / "tables.jsonl"
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:raise:99")
        partial = run_tables(
            tiny, ports_list=(4,), methods=("M1",), workers=2,
            ledger_path=ledger_path, retries=0,
        )
        assert len(partial.raw) < len(clean.raw)
        assert partial.failures
        monkeypatch.delenv(TEST_FAULT_ENV)
        resumed_dir = tmp_path / "resumed"
        resumed = run_tables(
            tiny, ports_list=(4,), methods=("M1",), workers=2,
            ledger_path=ledger_path, out_dir=resumed_dir,
        )
        assert resumed.to_csv() == clean.to_csv()
        assert (resumed_dir / "tables_simulated.csv").read_bytes() == (
            clean_dir / "tables_simulated.csv"
        ).read_bytes()
        assert resumed.values == clean.values
        assert resumed.throughput == clean.throughput
        assert resumed.failures == []


class TestCLIFailureReporting:
    def test_exhausted_units_exit_nonzero(self, tmp_path, monkeypatch, capsys):
        """--quiet must not let a partially-failed run look successful."""
        from repro.experiments.__main__ import main as cli_main

        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:raise:99")
        rc = cli_main(
            [
                "figure8", "--preset", "tiny", "--quiet", "--retries", "0",
                "--resume", str(tmp_path / "ledger.jsonl"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "exhausted their retry budget" in err
        assert "down-up" in err

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as cli_main

        rc = cli_main(
            [
                "figure8", "--preset", "tiny", "--quiet",
                "--resume", str(tmp_path / "ledger.jsonl"),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().err == ""


class TestUnitWatchdog:
    """The per-unit wall-time watchdog (``unit_timeout``)."""

    def test_hung_unit_timed_out_and_retried_serial(
        self, units, clean_results, monkeypatch
    ):
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:hang:1")
        lines = []
        results = run_parallel(
            list(units), max_workers=1, retries=1, unit_timeout=0.5,
            progress=lines.append,
        )
        assert results == clean_results
        assert any("[retry]" in ln and "UnitTimeout" in ln for ln in lines)

    def test_hung_unit_exhausts_budget_pooled(self, units, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:hang:99")
        failures = []
        results = run_parallel(
            list(units), max_workers=2, retries=0, unit_timeout=0.5,
            failures=failures,
        )
        doomed = {u.key() for u in units if u.algorithm == "down-up"}
        assert {f.key for f in failures} == doomed
        assert all("wall-time budget" in f.error for f in failures)
        # the hung units never stalled their siblings
        assert {r["key"] for r in results} == {
            u.key() for u in units if u.algorithm == "l-turn"
        }

    def test_execute_unit_disarms_watchdog(self, units, monkeypatch):
        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:hang:9")
        hung = next(u for u in units if u.algorithm == "down-up")
        with pytest.raises(UnitTimeout, match="wall-time budget"):
            execute_unit(hung, 1, 0.3)
        monkeypatch.delenv(TEST_FAULT_ENV)
        # the timer was disarmed: a slow follow-up unit is not shot down
        res = execute_unit(hung, 1, None)
        assert res["key"] == hung.key()

    # the interpreter reports the discarded raise as unraisable
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning"
    )
    def test_swallowed_alarm_still_times_out(self, units, monkeypatch):
        """An alarm landing in a gc callback has its raise discarded by
        the interpreter; the overrun unit must still be charged."""
        import gc
        import time

        from repro.experiments import parallel

        def collect_then_return(unit):
            gc.collect()
            return {"key": unit.key()}

        def slow_callback(phase, info):
            if phase == "start":
                time.sleep(0.1)  # the 0.01 s alarm fires in here

        monkeypatch.setattr(parallel, "run_unit", collect_then_return)
        gc.callbacks.append(slow_callback)
        try:
            with pytest.raises(UnitTimeout, match="wall-time budget"):
                execute_unit(units[0], 1, 0.01)
        finally:
            gc.callbacks.remove(slow_callback)

    def test_cli_flag_reports_timeouts(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.__main__ import main as cli_main

        monkeypatch.setenv(TEST_FAULT_ENV, "down-up:hang:99")
        rc = cli_main(
            [
                "figure8", "--preset", "tiny", "--quiet", "--retries", "0",
                "--unit-timeout", "0.5",
                "--resume", str(tmp_path / "ledger.jsonl"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "exhausted their retry budget" in err
        assert "wall-time budget" in err


class TestLockOwnerDiagnostics:
    """``LedgerLockedError`` names the lock holder via the owner sidecar."""

    def test_locked_error_names_live_owner(self, tmp_path):
        pytest.importorskip("fcntl")
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path):
            with pytest.raises(LedgerLockedError) as exc_info:
                ResultLedger(path)
        msg = str(exc_info.value)
        assert f"pid {os.getpid()}" in msg
        assert socket.gethostname() in msg
        assert "still alive" in msg

    def test_sidecar_published_and_retired(self, tmp_path):
        pytest.importorskip("fcntl")
        path = tmp_path / "ledger.jsonl"
        led = ResultLedger(path)
        sidecar = tmp_path / "ledger.jsonl.owner.json"
        info = json.loads(sidecar.read_text(encoding="utf-8"))
        assert info["pid"] == os.getpid()
        assert info["host"] == socket.gethostname()
        led.close()
        assert not sidecar.exists()

    def test_unknown_owner_degrades_gracefully(self, tmp_path):
        pytest.importorskip("fcntl")
        path = tmp_path / "ledger.jsonl"
        with ResultLedger(path):
            (tmp_path / "ledger.jsonl.owner.json").unlink()
            with pytest.raises(LedgerLockedError, match="owner unknown"):
                ResultLedger(path)

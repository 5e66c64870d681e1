"""The perf gates' shared harness (``benchmarks/gate.py``), without timing."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
_spec = importlib.util.spec_from_file_location("bench_gate", BENCH / "gate.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _baseline(tmp_path, doc):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


class TestPaired:
    def test_summary_is_over_base_to_new_ratios(self):
        sides = iter([(3.0, 0), (1.0, 0), (2.0, 0), (1.0, 0)])
        summary, t_base, t_new = gate.paired(
            2, lambda: next(sides), lambda: next(sides), lambda a, b: None, metric="ratio"
        )
        assert summary == {"ratio_median": 2.5, "ratio_min": 2.0, "ratio_max": 3.0}
        assert (t_base, t_new) == (2.5, 1.0)

    def test_disagreeing_pair_raises(self):
        def identical(a, b):
            if a != b:
                raise AssertionError("diverged")

        with pytest.raises(AssertionError, match="diverged"):
            gate.paired(1, lambda: (1.0, "a"), lambda: (1.0, "b"), identical)


class TestFloor:
    def test_ratio_at_floor_passes_and_just_below_fails(self, tmp_path):
        # the floor is 20% below the baseline: 5.0 -> 4.0
        path = _baseline(tmp_path, {"engines": {"a": {"speedup_median": 5.0}}})
        assert gate.check(path, "engines", {"a": {"speedup_median": 4.0}}) == 0
        assert gate.check(path, "engines", {"a": {"speedup_median": 3.999}}) == 1

    def test_single_cell_section(self, tmp_path):
        path = _baseline(tmp_path, {"construction_quick": {"ratio_median": 2.5}})
        at, below = {"ratio_median": 2.0}, {"ratio_median": 1.999}
        assert gate.check(path, "construction_quick", at, metric="ratio") == 0
        assert gate.check(path, "construction_quick", below, metric="ratio") == 1

    def test_one_regressed_cell_fails_the_set(self, tmp_path):
        base = {"a": {"speedup_median": 2.0}, "b": {"speedup_median": 2.0}}
        path = _baseline(tmp_path, {"engines": base})
        got = {"a": {"speedup_median": 9.0}, "b": {"speedup_median": 1.0}}
        assert gate.check(path, "engines", got) == 1


class TestStrictInputs:
    def test_missing_file(self, tmp_path):
        missing = tmp_path / "absent.json"
        assert gate.check(missing, "engines", {"a": {"speedup_median": 9.0}}) == 2

    def test_missing_section(self, tmp_path):
        path = _baseline(tmp_path, {"engines": {"a": {"speedup_median": 1.0}}})
        assert gate.check(path, "engines_quick", {"a": {"speedup_median": 9.0}}) == 2

    def test_baseline_cell_not_measured(self, tmp_path, capsys):
        base = {"a": {"speedup_median": 1.0}, "renamed": {"speedup_median": 1.0}}
        path = _baseline(tmp_path, {"engines": base})
        assert gate.check(path, "engines", {"a": {"speedup_median": 9.0}}) == 2
        assert "renamed" in capsys.readouterr().out

    def test_measured_cell_not_in_baseline(self, tmp_path, capsys):
        path = _baseline(tmp_path, {"engines": {"a": {"speedup_median": 1.0}}})
        got = {"a": {"speedup_median": 9.0}, "new": {"speedup_median": 9.0}}
        assert gate.check(path, "engines", got) == 2
        assert "new" in capsys.readouterr().out


class TestCli:
    def test_contract_fails_a_passing_cell_set(self, tmp_path):
        path = _baseline(tmp_path, {"engines": {"a": {"speedup_median": 1.0}}})

        def run(quick):
            return {"a": {"speedup_median": 1.0}}, {}

        assert gate.main(path, run, "engines", argv=["--check"]) == 0
        broken = gate.main(path, run, "engines", contract=lambda extras, quick: False,
                           argv=["--check"])
        assert broken == 1

    @pytest.mark.parametrize("name, section, metric, extras", [
        ("BENCH_engine_fastpath.json", "engines", "speedup", ()),
        ("BENCH_batch_engine.json", "engines", "speedup", ("speedup_median_256sw",)),
        ("BENCH_replica_batch.json", "engines", "speedup",
         ("speedup_median_design", "prime_seconds_full")),
        ("BENCH_construction_cache.json", "construction", "ratio", ()),
    ])
    def test_write_quick_replaces_only_the_quick_section(
        self, tmp_path, name, section, metric, extras
    ):
        path = tmp_path / name
        shutil.copy(BENCH / name, path)
        before = path.read_text()
        cell = {f"{metric}_median": 1.234}
        measured = cell if metric == "ratio" else {"only": cell}
        assert gate.main(path, lambda quick: (measured, {}), section, metric,
                         argv=["--write", "--quick"]) == 0
        after = json.loads(path.read_text())
        assert after[f"{section}_quick"] == measured
        assert all(key in after for key in extras)
        # put the old quick section back: every other byte is unchanged
        after[f"{section}_quick"] = json.loads(before)[f"{section}_quick"]
        assert json.dumps(after, indent=2) + "\n" == before

"""Tests of the end-to-end benchmark harness itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def unit():
        clock.tick(1.0)  # outside every span
        tracer.enter("experiments.stage")
        clock.tick(2.0)
        tracer.enter("simulator.run")
        clock.tick(3.0)
        tracer.exit()
        tracer.enter("util.fsio")
        clock.tick(0.5)
        tracer.exit()
        clock.tick(1.5)
        tracer.exit()
        clock.tick(0.25)

    tracer.measure(unit)
    tracer.measure(unit)
    assert tracer.self_s["experiments.stage"] == 7.0
    assert tracer.self_s["simulator.run"] == 6.0
    assert tracer.self_s["util.fsio"] == 1.0
    assert tracer.unattributed_s == 2.5
    assert sum(tracer.self_s.values()) + tracer.unattributed_s == tracer.wall_s == 16.5

    m = tracer.layer_metrics(call_cost=0.011)
    assert m["experiments.stage.self_s"] == 3.5  # per unit
    assert m["simulator.run.calls"] == 1.0
    assert m["simulator.run.p50_s"] == m["simulator.run.p90_s"] == 3.0
    assert m["trace.unattributed_s"] == 1.25
    assert m["trace.overhead_frac"] == 6 * 0.011 / 16.5  # 6 calls over the traced wall
    assert set(m) == set(spans.layer_metric_units())


def test_spans_outside_a_unit_are_not_recorded(tmp_path):
    import repro.experiments.campaign as campaign

    tracer = spans.Tracer(FakeClock())
    with spans.install(tracer):
        campaign.atomic_write_text(tmp_path / "a.txt", "x")
        assert tracer.calls["util.fsio"] == 0
        tracer.measure(lambda: campaign.atomic_write_text(tmp_path / "b.txt", "y"))
    assert tracer.calls["util.fsio"] == 1


def _raw(target):
    mod = importlib.import_module(target.module)
    owner_name, _, name = target.attr.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    return owner, name, vars(owner)[name]


def test_install_rebinds_every_import_site_and_restores_identity():
    import repro.experiments.parallel as parallel

    originals = {t: _raw(t) for t in spans.TARGETS}
    functions = {id(raw): raw for t, (_o, _n, raw) in originals.items() if "." not in t.attr}
    sites = [
        (d, key, value)
        for d in spans._module_dicts()
        for key, value in d.items()
        if id(value) in functions and functions[id(value)] is value
    ]
    run_unit = parallel.run_unit
    late = types.ModuleType("e2e_late_import")

    handle = spans.install(spans.Tracer(time.perf_counter))
    try:
        assert not handle.unbound
        assert parallel.run_unit is not run_unit
        for d, key, value in sites:
            assert d[key] is not value, key
        for target, (owner, name, raw) in originals.items():
            if "." in target.attr:
                assert vars(owner)[name] is not raw, target
        # a module imported while tracing is on copies the wrapper
        late.run_unit = parallel.run_unit
        sys.modules[late.__name__] = late
    finally:
        handle.restore()
        sys.modules.pop(late.__name__, None)

    assert parallel.run_unit is run_unit
    assert late.run_unit is run_unit
    for d, key, value in sites:
        assert d[key] is value, key
    for target, (owner, name, raw) in originals.items():
        assert vars(owner)[name] is raw, target


def test_missing_expected_span_fails_the_traced_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(
        workloads.ConstructPaper, "expected",
        workloads.ConstructPaper.expected + ("simulator.run",),
    )
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        child.main([
            "--workload", "construct-paper", "--seed", "3", "--seconds", "0.01",
            "--trace", "1", "--work", str(tmp_path), "--smoke",
        ])
    report = json.loads(stdout.getvalue().splitlines()[-1][len("RESULT "):])
    assert report["trace_problems"] == ["expected span never entered: simulator.run"]
    assert report["failed"] == 0

    report.update(setup_s=[0.1], setup_speed=[1.0])
    monkeypatch.setattr(run, "run_children", lambda *a, **k: report)
    result = run.run_once(run.load_spec(), "construct-paper", 3, 0.01, 1, tmp_path)
    assert result["correct"] is False


def test_bound_classification():
    base = [1.0, 1.02, 0.98, 1.01]
    lower = lambda now, **kw: run.classify(now, base, 0.1, "lower", **kw)  # noqa: E731
    assert lower([1.05, 1.04, 1.06, 1.05]) == "ok"
    assert lower([1.2, 1.21, 1.19, 1.2]) == "regression"
    assert lower([0.8, 1.0, 1.4, 1.1]) == "unresolved"
    # wide spread, but every run beats every base run
    assert lower([0.5, 0.9, 0.6, 0.55]) == "ok"
    assert run.classify([0.85, 0.86, 0.84], base, 0.1, "higher") == "regression"
    assert run.classify([1.2, 1.21, 1.19], base, 0.1, "higher") == "ok"
    # setup_s: an absolute floor under the relative bound
    assert run.classify([0.15, 0.151, 0.149], [0.1] * 3, 0.25, "lower", floor=0.1) == "ok"
    assert run.classify([0.25, 0.251, 0.249], [0.1] * 3, 0.25, "lower", floor=0.1) == (
        "regression"
    )


def test_declared_per_layer_metrics_match_the_tracer():
    spec = run.load_spec()
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = dict(spans.layer_metric_units(), latency_err_vs_fast="fraction")
    assert declared == produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_emits_every_declared_metric(tmp_path):
    recorded = [p.read_bytes() if p.exists() else None for p in (run.BASELINE, run.GOLDEN)]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    spec = run.load_spec()
    results = json.loads((tmp_path / "results.json").read_text())
    assert set(results["runs"]) == {w["name"] for w in spec["workloads"]}
    for w, runs in results["runs"].items():
        assert set(runs[0]["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(results["traced"][w]["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert recorded == [
        p.read_bytes() if p.exists() else None for p in (run.BASELINE, run.GOLDEN)
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "construct-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

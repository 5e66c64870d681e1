#!/usr/bin/env python3
"""End-to-end benchmark: five paper workloads, host-time metrics, layer trace.

Run from the repository root::

    python3 benchmarks/e2e/run.py            # every workload, 3 repeats, then a traced pass
    python3 benchmarks/e2e/run.py --check    # same, compared against baseline.json
    python3 benchmarks/e2e/run.py --write    # same, recording baseline.json and golden.json
    python3 benchmarks/e2e/run.py --smoke    # every workload at tiny scale, in seconds
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form runs one workload once and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``).  Every run starts fresh child processes
(``child.py``): ``setup_s`` is the median over several of them of the
time from process start to the end of set-up; the last one then runs the
timed closed loop.  Times are rescaled to a reference host speed (see
``child.Calibration`` and README.md).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
BASELINE = HERE / "baseline.json"

#: the presets' seed; golden digests are stored for it
DEFAULT_SEED = 20040815
#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: one run (all its child processes) must end within this many seconds
RUN_DEADLINE_S = 170.0
#: absolute slack under ``setup_s``'s relative bound in ``--check``
SETUP_FLOOR_S = 0.1


class BenchError(RuntimeError):
    """A run could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> Dict[str, str]:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_")  # no engine or backend override
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _pin_to_one_cpu() -> None:
    # the scheduler moving a child between CPUs widens the run-to-run
    # spread more than anything the workloads do
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _await_ready(proc: subprocess.Popen, deadline: float, clock) -> None:
    while True:
        left = deadline - clock()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            raise BenchError("child set-up timed out")
        line = proc.stdout.readline()
        if not line:
            raise BenchError(f"child exited during set-up (code {proc.wait()})")
        if line.strip() == "READY":
            return


def run_children(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    work: Path,
    smoke: bool = False,
    golden: Optional[Path] = None,
    setups: int = SETUPS,
) -> dict:
    """Set up *setups* times in fresh processes; the last one also measures.

    Returns the last child's report plus every child's set-up time
    (``setup_s``) and speed factor (``setup_speed``).
    """
    from repro.util.wallclock import wall_clock

    deadline = wall_clock() + RUN_DEADLINE_S
    setup_s: List[float] = []
    speeds: List[float] = []
    report: Optional[dict] = None
    for i in range(setups):
        last = i == setups - 1
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work", str(work / f"child-{i}"),
        ]
        cmd += ["--smoke"] if smoke else []
        cmd += ["--golden", str(golden)] if golden is not None else []
        cmd += [] if last else ["--setup-only"]
        start = wall_clock()
        with subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
            preexec_fn=_pin_to_one_cpu,
        ) as proc:
            try:
                _await_ready(proc, deadline, wall_clock)
                setup_s.append(wall_clock() - start)
                rest, _ = proc.communicate(timeout=max(1.0, deadline - wall_clock()))
            except (BenchError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0:
            raise BenchError(f"{workload}: child exited with code {proc.returncode}")
        tagged = {}
        for line in rest.splitlines():
            tag, _, value = line.partition(" ")
            tagged[tag] = value
        if "SPEED" not in tagged or (last and "RESULT" not in tagged):
            raise BenchError(f"{workload}: child printed no result")
        speeds.append(float(tagged["SPEED"]))
        if last:
            report = json.loads(tagged["RESULT"])
    report["setup_s"] = setup_s
    report["setup_speed"] = speeds
    return report


def run_once(
    spec: dict,
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    out: Path,
    smoke: bool = False,
    use_golden: bool = True,
) -> dict:
    """One benchmark run: the contract's result object plus run details."""
    golden = None
    if use_golden and seed == DEFAULT_SEED and not smoke and GOLDEN.exists():
        golden = GOLDEN
    work = out / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    try:
        report = run_children(
            workload, seed, seconds, trace, work, smoke, golden,
            setups=1 if trace or smoke else SETUPS,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        values = dict(report["layers"])
        declared = spec["per_layer"]
    else:
        med = lambda v: statistics.median(v) if v else 0.0  # noqa: E731
        wall_speed, cpu_speed = report["speed"]
        values = {
            "wall_norm_s": med(report["walls"]) * wall_speed,
            "cpu_norm_s": med(report["cpus"]) * cpu_speed,
            "setup_s": med([t * f for t, f in zip(report["setup_s"], report["setup_speed"])]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    problems = list(report["problems"]) + list(report.get("trace_problems", []))
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{workload}: no finite value for {m['name']}: {value!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if set(values) - set(metrics):
        raise BenchError(f"undeclared metrics: {sorted(set(values) - set(metrics))}")
    return {
        "correct": report["failed"] == 0 and not problems and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
        "problems": problems,
        "digests": report["digests"],
        "samples": {
            k: report[k] for k in ("walls", "cpus", "speed", "setup_s", "setup_speed")
        },
        "fast_reference": report.get("fast_reference"),
        "traced_wall_s": report.get("traced_wall_s"),
    }


# ---------------------------------------------------------------------------
# summaries and bound classification
# ---------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def classify(
    current: Sequence[float],
    base: Sequence[float],
    bound: float,
    better: str,
    floor: float = 0.0,
) -> str:
    """``ok``, ``regression`` or ``unresolved`` for one (workload, metric).

    A metric whose own quartile spread is wider than its bound is
    unresolved, unless every current run reads better than every base
    run.  Otherwise it regresses when its median is worse than the base
    median by more than ``max(bound * base, floor)``.
    """
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * c < sign * b for c in current for b in base):
        return "ok"
    q1, med, q3 = quartiles(current)
    if med and (q3 - q1) / abs(med) > bound:
        return "unresolved"
    ref = statistics.median(base)
    return "regression" if sign * (med - ref) > max(bound * abs(ref), floor) else "ok"


def host_fingerprint() -> Dict[str, object]:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def contract_mode(spec: dict, args) -> int:
    result = run_once(
        spec, args.workload, args.seed, args.seconds, args.trace, args.out
    )
    for p in result["problems"]:
        print(f"problem: {p}")
    print(f"{args.workload}: samples {json.dumps(result['samples'])}")
    print(f"{args.workload}: digests {json.dumps(result['digests'])}")
    if args.trace:
        _print_layers(args.workload, result)
    else:
        for name, m in result["metrics"].items():
            print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _print_summary(spec: dict, runs: Dict[str, List[dict]]) -> None:
    print(f"\n{'workload':<18} {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'n':>3}  unit")
    for w, results in runs.items():
        rows = [
            (m["name"], [r["metrics"][m["name"]]["value"] for r in results], m["unit"])
            for m in spec["end_to_end"]
        ] + [
            (f"{name} (raw)", [statistics.median(r["samples"][key]) for r in results], "s")
            for name, key in (("wall_s", "walls"), ("cpu_s", "cpus"))
        ]
        for name, vals, unit in rows:
            q1, med, q3 = quartiles(vals)
            print(f"{w:<18} {name:<16} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{len(vals):>3}  {unit}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{w:<18} {'ops_failed_frac':<16} {failed / max(1, attempted):>10.4g} "
              f"{'':>10} {'':>10} {attempted:>3}  fraction")


def _print_layers(w: str, result: dict) -> None:
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    print(f"[{w}] traced pass, per unit: self times {self_total:.4f} s + unattributed "
          f"{m['trace.unattributed_s']:.4f} s = traced wall {result['traced_wall_s']:.4f} s; "
          f"overhead {m['trace.overhead_frac']:.3%}")
    for k, v in m.items():
        if v:
            print(f"  {k:<42} {v:.6g} {result['metrics'][k]['unit']}")


def suite_mode(spec: dict, args) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.smoke:
        seconds, repeats = 1.0, 1
    else:
        seconds, repeats = args.seconds, args.repeats
    if args.write and (args.smoke or args.seed != DEFAULT_SEED):
        raise SystemExit("--write records the default seed at full scale only")
    use_golden = not args.write
    runs: Dict[str, List[dict]] = {w: [] for w in names}
    for rep in range(repeats):  # round-robin, so drift hits every workload alike
        for w in names:
            print(f"[e2e] {w} repeat {rep + 1}/{repeats}", flush=True)
            runs[w].append(run_once(spec, w, args.seed, seconds, 0, args.out,
                                    args.smoke, use_golden))
    traced = {}
    for w in names:
        print(f"[e2e] {w} traced pass", flush=True)
        traced[w] = run_once(spec, w, args.seed, seconds, 1, args.out, args.smoke,
                             use_golden)
    _print_summary(spec, runs)
    for w in names:
        print()
        _print_layers(w, traced[w])

    failures = [
        f"{w}: {p}" for w in names for r in runs[w] + [traced[w]]
        for p in r["problems"] or ([] if r["correct"] else ["incorrect"])
    ]
    for f in failures:
        print(f"FAILED {f}")
    results = {
        "host": host_fingerprint(),
        "seed": args.seed,
        "seconds": seconds,
        "repeats": repeats,
        "smoke": args.smoke,
        "runs": runs,
        "traced": traced,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {args.out / 'results.json'}")
    if failures:
        return 1
    if args.write:
        _write(spec, names, runs, traced, results)
    if args.check:
        return _check(spec, names, runs)
    return 0


def _write(spec, names, runs, traced, results) -> None:
    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in names:
        digests = {json.dumps(r["digests"], sort_keys=True) for r in runs[w] + [traced[w]]}
        if len(digests) != 1:
            raise SystemExit(f"{w}: runs disagree on their outputs; nothing written")
        golden["workloads"][w] = {"digests": runs[w][0]["digests"]}
        if traced[w]["fast_reference"] is not None:
            golden["workloads"][w]["fast_reference"] = traced[w]["fast_reference"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    baseline = {
        "host": results["host"],
        "seed": results["seed"],
        "seconds": results["seconds"],
        "workloads": {
            w: {
                m["name"]: [r["metrics"][m["name"]]["value"] for r in runs[w]]
                for m in spec["end_to_end"]
            }
            for w in names
        },
    }
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)} and {BASELINE.relative_to(ROOT)}")


def _check(spec, names, runs) -> int:
    baseline = json.loads(BASELINE.read_text())
    print(f"\n{'workload':<18} {'metric':<14} {'base':>10} {'now':>10}  status")
    regressions = 0
    for w in names:
        for m in spec["end_to_end"]:
            base = baseline["workloads"][w][m["name"]]
            now = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            floor = SETUP_FLOOR_S if m["name"] == "setup_s" else 0.0
            status = classify(now, base, m["bound"], m["better"], floor)
            regressions += status == "regression"
            print(f"{w:<18} {m['name']:<14} {statistics.median(base):>10.4g} "
                  f"{statistics.median(now):>10.4g}  {status}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run one workload once (the contract mode)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed window per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", type=Path, default=ROOT / ".e2e_out",
                    help="scratch and results directory (default: .e2e_out)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="record baseline.json and golden.json")
    mode.add_argument("--check", action="store_true",
                      help="classify every (workload, metric) against baseline.json")
    mode.add_argument("--smoke", action="store_true",
                      help="tiny scale, 1 s windows; never touches the baseline")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.out = args.out.resolve()
    try:
        if args.workload:
            return contract_mode(spec, args)
        return suite_mode(spec, args)
    except BenchError as exc:
        print(f"e2e: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

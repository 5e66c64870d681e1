"""Fast-path engine benchmark and perf-regression gate.

Measures the clock-loop speedup of the active-set / decision-cache fast
path over the seed reference step implementations on the standard
scenario (64 switches, 4 ports, 128-flit packets, 0.3 injection rate)
and asserts bit-identity of the results while doing so — a speedup
measured against a diverging simulation would be meaningless.

Timing methodology: CPU time (``time.process_time``) over paired
adjacent reference/fast runs, reporting the median of the per-pair
ratios.  Pairing bounds the impact of machine noise: both runs of a
pair see roughly the same interference, and the median discards
outlier pairs entirely.

Usage::

    python benchmarks/bench_engine_fastpath.py            # measure, print
    python benchmarks/bench_engine_fastpath.py --write    # refresh baseline
    python benchmarks/bench_engine_fastpath.py --check    # CI gate: fail on
                                                          # >20% regression
    python benchmarks/bench_engine_fastpath.py --quick    # fewer/shorter runs

The committed baseline lives next to this script in
``BENCH_engine_fastpath.json``.  The CI gate compares *speedup ratios*
(dimensionless, per-pair), not wall/CPU times, so it is portable across
machines of different absolute speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.downup import build_down_up_routing  # noqa: E402
from repro.simulator import (  # noqa: E402
    SimulationConfig,
    VirtualChannelSimulator,
    WormholeSimulator,
)
from repro.topology.generator import random_irregular_topology  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "BENCH_engine_fastpath.json"
REGRESSION_TOLERANCE = 0.20  # CI fails if speedup drops >20% below baseline


def standard_scenario(quick: bool = False):
    """The acceptance scenario: 64 switches, 0.3 load, 128-flit worms."""
    topo = random_irregular_topology(64, 4, rng=64)
    routing = build_down_up_routing(topo, rng=7)
    cfg = SimulationConfig(
        packet_length=128,
        injection_rate=0.3,
        warmup_clocks=500 if quick else 1_000,
        measure_clocks=2_000 if quick else 5_000,
        seed=7,
    )
    return topo, routing, cfg


def _timed_run(make_sim, cfg):
    sim = make_sim(cfg)
    t0 = time.process_time()
    stats = sim.run()
    return time.process_time() - t0, stats.canonical_digest()


def measure(make_sim, cfg, pairs: int):
    """Median per-pair speedup of fast over reference; asserts identity."""
    ratios = []
    for _ in range(pairs):
        t_ref, d_ref = _timed_run(make_sim, cfg.with_engine("reference"))
        t_fast, d_fast = _timed_run(make_sim, cfg.with_engine("fast"))
        if d_ref != d_fast:
            raise AssertionError(
                "fast path diverged from the reference engine — "
                "run tests/test_engine_equivalence.py for a minimal repro"
            )
        ratios.append(t_ref / t_fast)
    return {
        "speedup_median": round(statistics.median(ratios), 3),
        "speedup_min": round(min(ratios), 3),
        "speedup_max": round(max(ratios), 3),
        "pairs": pairs,
    }


def run_benchmarks(quick: bool = False) -> dict:
    _topo, routing, cfg = standard_scenario(quick)
    pairs = 3 if quick else 8
    results = {
        "mode": "quick" if quick else "full",
        "scenario": {
            "switches": 64,
            "ports": 4,
            "packet_length": cfg.packet_length,
            "injection_rate": cfg.injection_rate,
            "measure_clocks": cfg.measure_clocks,
            "seed": cfg.seed,
        },
        "engines": {},
    }
    print(f"scenario: 64sw/4p, load 0.3, {cfg.measure_clocks} clocks, "
          f"{pairs} paired runs per engine", flush=True)
    r = measure(lambda c: WormholeSimulator(routing, c), cfg, pairs)
    results["engines"]["base"] = r
    print(f"  base engine: median {r['speedup_median']}x "
          f"(min {r['speedup_min']}, max {r['speedup_max']})", flush=True)
    r = measure(
        lambda c: VirtualChannelSimulator(routing, c, num_vcs=2), cfg, pairs
    )
    results["engines"]["vc"] = r
    print(f"  vc engine (V=2): median {r['speedup_median']}x "
          f"(min {r['speedup_min']}, max {r['speedup_max']})", flush=True)
    return results


def check(results: dict) -> int:
    """Compare measured speedups against the committed baseline.

    Quick runs are gated against the quick baseline section (shorter
    runs measure systematically lower speedups — setup is amortized
    over fewer clocks — so they need their own reference point)."""
    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; run with --write first")
        return 2
    baseline = json.loads(BASELINE.read_text())
    section = "engines_quick" if results["mode"] == "quick" else "engines"
    if section not in baseline:
        print(f"baseline has no {section!r} section; "
              f"run --write {'--quick' if section.endswith('quick') else ''}")
        return 2
    failed = False
    for engine, base in baseline[section].items():
        got = results["engines"][engine]["speedup_median"]
        floor = base["speedup_median"] * (1 - REGRESSION_TOLERANCE)
        status = "ok" if got >= floor else "REGRESSION"
        failed |= got < floor
        print(f"  {engine}: measured {got}x vs baseline "
              f"{base['speedup_median']}x (floor {floor:.2f}x) -> {status}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="write results as the new committed baseline")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero if speedup regressed >20%% vs baseline")
    ap.add_argument("--quick", action="store_true",
                    help="shorter runs (CI smoke; noisier)")
    args = ap.parse_args(argv)
    results = run_benchmarks(quick=args.quick)
    if args.write:
        merged = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        merged.setdefault("scenario", results["scenario"])
        key = "engines_quick" if args.quick else "engines"
        merged[key] = results["engines"]
        BASELINE.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"baseline ({key}) written to {BASELINE}")
        return 0
    if args.check:
        return check(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

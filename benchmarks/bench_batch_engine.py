"""Batch-engine benchmark and perf-regression gate.

Measures the clock-loop speedup of the relaxed-contract batch engine
(``engine: batch``) over the active-set fast path on a 256-switch
scenario matrix — offered loads {0.3, 0.6, 0.9} crossed with packet
lengths {128, 512} — plus a 1024-switch end-to-end scale point.  The
acceptance number is the **median of the per-scenario median speedups
at 256 switches** (committed as ``speedup_median_256sw``).

Unlike the bit-exact benchmarks this one cannot assert digest
equality — the batch engine's whole point is dropping the sequential
RNG-replay arbitration that digest equality requires.  Instead it
asserts the relaxed contract's two invariants inline:

* **determinism**: repeated batch runs of one (config, seed) must
  produce the same ``statistical_fingerprint``;
* **certification**: distributional equality against the bit-exact
  oracles is the equivalence gate's job
  (``repro-experiments equivalence``), run separately in CI — a
  speedup over a *diverging* simulation would be meaningless, so CI
  runs the gate next to this benchmark.

Speedups grow with packet length (fewer header decisions per flit
moved, so the batched body phase dominates) and with topology size
(wider numpy batches per clock); both axes are in the matrix so the
committed baseline documents the shape, not just one flattering point.
The deadlock watchdog is disabled (``deadlock_interval=0``) to time
the engine loops themselves, not the shared periodic analysis.

The batch engine encodes per-destination candidate rows once per
*routing* (cached on the routing object, shared by every later run —
the same amortization the construction artifact cache gives topologies
and tables).  That one-time cost is paid by an untimed priming run per
routing and reported separately (``prime_seconds``), so the timed
pairs measure the steady state a campaign actually runs in, and the
setup cost is documented rather than smeared into one arbitrary pair.
Both modes (quick CI smoke included) also assert the priming stays
*sub-linear in scenario count*: the row cache may grow only marginally
while the matrix runs, proving its cost is O(destinations) and paid
once, not O(scenarios).

Timing methodology: CPU time (``time.process_time``) over paired
adjacent fast/batch runs, interleaved so both see the same machine
interference, reporting the median of per-pair ratios.  Each cell also
records both sides' median CPU seconds (``fast_cpu_s``/``batch_cpu_s``):
the ratio is relative to the fast path, so a faster fast path lowers it
with the batch engine untouched, and only the absolute batch time can
tell the two apart on one host.

Usage::

    python benchmarks/bench_batch_engine.py            # measure, print
    python benchmarks/bench_batch_engine.py --write    # refresh baseline
    python benchmarks/bench_batch_engine.py --check    # CI gate: fail on
                                                       # >20% regression
    python benchmarks/bench_batch_engine.py --quick    # fewer/shorter runs

The committed baseline lives next to this script in
``BENCH_batch_engine.json``.  The CI gate compares *speedup ratios*
(dimensionless, per-pair), not absolute times, so it is portable
across machines of different absolute speed.
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
from repro.simulator import SimulationConfig, WormholeSimulator  # noqa: E402
from repro.topology.generator import random_irregular_topology  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "BENCH_batch_engine.json"
REGRESSION_TOLERANCE = 0.20  # CI fails if speedup drops >20% below baseline

#: the 256-switch acceptance matrix: load x packet length
MATRIX = (
    (0.3, 128), (0.6, 128), (0.9, 128),
    (0.3, 512), (0.6, 512), (0.9, 512),
)


def _config(rate: float, pl: int, clocks: int, seed: int) -> SimulationConfig:
    return SimulationConfig(
        packet_length=pl,
        injection_rate=rate,
        warmup_clocks=clocks // 5,
        measure_clocks=clocks,
        seed=seed,
        deadlock_interval=0,
    )


def _timed_run(routing, cfg):
    sim = WormholeSimulator(routing, cfg)
    t0 = time.process_time()
    stats = sim.run()
    return time.process_time() - t0, stats


def _prime_rows(routing, clocks: int) -> float:
    """One untimed high-load batch run to populate the shared row cache.

    Rate 0.9 over the full run length touches essentially every
    destination, so later timed runs find their candidate rows already
    encoded on the routing object.  Returns the priming CPU time
    (row encoding plus one full run) for the report.
    """
    t, _ = _timed_run(
        routing, _config(0.9, 128, clocks, seed=0).with_engine("batch")
    )
    return round(t, 3)


def measure(routing, rate: float, pl: int, clocks: int, pairs: int) -> dict:
    """Median per-pair batch-over-fast speedup for one scenario.

    Also asserts batch determinism: every pair reruns seed 0, and all
    seed-0 fingerprints must agree.
    """
    ratios = []
    fast_s = []
    batch_s = []
    fingerprints = set()
    for _ in range(pairs):
        cfg = _config(rate, pl, clocks, seed=0)
        t_fast, _ = _timed_run(routing, cfg.with_engine("fast"))
        t_batch, stats = _timed_run(routing, cfg.with_engine("batch"))
        fingerprints.add(stats.statistical_fingerprint())
        ratios.append(t_fast / t_batch)
        fast_s.append(t_fast)
        batch_s.append(t_batch)
    if len(fingerprints) != 1:
        raise AssertionError(
            "batch engine is not deterministic: one (config, seed) "
            f"produced {len(fingerprints)} distinct fingerprints"
        )
    return {
        "rate": rate,
        "packet_length": pl,
        "speedup_median": round(statistics.median(ratios), 3),
        "speedup_min": round(min(ratios), 3),
        "speedup_max": round(max(ratios), 3),
        "fast_cpu_s": round(statistics.median(fast_s), 3),
        "batch_cpu_s": round(statistics.median(batch_s), 3),
        "pairs": pairs,
    }


def _report(name: str, r: dict) -> None:
    print(f"  {name}: median {r['speedup_median']}x "
          f"(min {r['speedup_min']}, max {r['speedup_max']}; "
          f"cpu fast {r['fast_cpu_s']}s, batch {r['batch_cpu_s']}s)",
          flush=True)


def run_benchmarks(quick: bool = False) -> dict:
    pairs = 2 if quick else 3
    clocks = 1_500 if quick else 3_000
    results = {
        "mode": "quick" if quick else "full",
        "scenario": {
            "switches": 256,
            "ports": 6,
            "matrix": [list(m) for m in MATRIX],
            "scale_point_switches": 1024,
            "seed": 0,
        },
        "engines": {},
    }
    topo = random_irregular_topology(256, 6, rng=11)
    routing = build_down_up_routing(topo)
    results["prime_seconds_256sw"] = _prime_rows(routing, clocks)
    rows_after_prime = len(getattr(routing, "_batch_rows", {}))
    medians = []
    print(f"256sw/6p matrix, {clocks} measured clocks, {pairs} paired runs "
          "per cell (batch vs fast), rows primed in "
          f"{results['prime_seconds_256sw']}s", flush=True)
    for rate, pl in MATRIX:
        r = measure(routing, rate, pl, clocks, pairs)
        results["engines"][f"rate{rate}_pl{pl}"] = r
        medians.append(r["speedup_median"])
        _report(f"rate={rate} pl={pl}", r)
    results["speedup_median_256sw"] = round(statistics.median(medians), 3)
    print(f"  256sw acceptance median: {results['speedup_median_256sw']}x",
          flush=True)

    # priming sub-linearity gate: candidate rows are encoded once per
    # *destination* and cached on the routing object, so the single
    # untimed priming run must already cover (nearly) every row the
    # whole matrix needs — priming cost is O(destinations), not
    # O(scenarios).  If row encoding regressed to per-scenario work,
    # the cache would grow by roughly its primed size for every cell;
    # allow the full matrix at most one matrix-th of that.
    rows_after_matrix = len(getattr(routing, "_batch_rows", {}))
    extra = rows_after_matrix - rows_after_prime
    results["row_cache"] = {
        "rows_after_prime": rows_after_prime,
        "rows_after_matrix": rows_after_matrix,
        "scenarios": len(MATRIX),
    }
    if extra * len(MATRIX) > rows_after_prime:
        raise AssertionError(
            "row-cache priming is no longer sub-linear in scenario "
            f"count: {rows_after_prime} rows after priming grew by "
            f"{extra} over {len(MATRIX)} scenarios"
        )
    print(f"  row cache: {rows_after_prime} rows primed, +{extra} across "
          f"{len(MATRIX)} scenarios (sub-linear gate ok)", flush=True)

    if not quick:
        # end-to-end scale point, same load profile and pairing
        topo = random_irregular_topology(1024, 6, rng=11)
        routing = build_down_up_routing(topo)
        results["prime_seconds_1024sw"] = _prime_rows(routing, clocks // 2)
        r = measure(routing, 0.3, 128, clocks // 2, pairs=pairs)
        results["engines"]["scale_1024sw"] = r
        _report("1024sw end-to-end", r)
    return results


def check(results: dict) -> int:
    """Compare measured speedups against the committed baseline.

    Quick runs gate against the quick baseline section (shorter runs
    amortize setup over fewer clocks, so they measure systematically
    different — and noisier — speedups and need their own reference).
    """
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
    for scenario, base in baseline[section].items():
        if scenario not in results["engines"]:
            continue
        got = results["engines"][scenario]["speedup_median"]
        floor = base["speedup_median"] * (1 - REGRESSION_TOLERANCE)
        status = "ok" if got >= floor else "REGRESSION"
        failed |= got < floor
        print(f"  {scenario}: measured {got}x vs baseline "
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
        if not args.quick:
            merged["speedup_median_256sw"] = results["speedup_median_256sw"]
        BASELINE.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"baseline ({key}) written to {BASELINE}")
        return 0
    if args.check:
        return check(results)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Batch-engine benchmark and perf-regression gate.

Measures the clock-loop speedup of the relaxed-contract batch engine
(``engine: batch``) over the active-set fast path on a 256-switch
scenario matrix — offered loads {0.3, 0.6, 0.9} crossed with packet
lengths {128, 512} — plus a 1024-switch scale point in full mode.  The
acceptance number is the **median of the per-scenario median speedups
at 256 switches** (committed as ``speedup_median_256sw``).  The
deadlock watchdog is off (``deadlock_interval=0``) so the engine loops
themselves are timed.

The batch engine drops the sequential RNG-replay arbitration, so no
digest can match the fast path's.  Each pair instead asserts
determinism: every pair reruns seed 0, and all its batch fingerprints
must agree.  Distributional equality against the bit-exact engine is
the equivalence gate's job (``repro-experiments equivalence``), which
CI runs next to this benchmark.

One untimed priming run builds what the routing derives lazily (its
candidate arrays and tuple views), so the timed pairs measure the
steady state a campaign runs in.  Each cell records both sides' median
CPU seconds (``fast_cpu_s``/``batch_cpu_s``), since a faster fast path
lowers the ratio with the batch engine untouched.

Pairing, the CLI and the baseline check are ``benchmarks/gate.py``'s;
the committed baseline is ``BENCH_batch_engine.json``.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import gate  # also puts src/ on sys.path
from repro.core.downup import build_down_up_routing
from repro.simulator import SimulationConfig, WormholeSimulator
from repro.topology.generator import random_irregular_topology

BASELINE = Path(__file__).resolve().parent / "BENCH_batch_engine.json"

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
    return gate.cpu_time(WormholeSimulator(routing, cfg).run)


def _prime_rows(routing, clocks: int) -> float:
    """One untimed rate-0.9 batch run, which touches essentially every
    destination's tables; returns its CPU time."""
    t, _ = _timed_run(routing, _config(0.9, 128, clocks, seed=0).with_engine("batch"))
    return round(t, 3)


def measure(routing, rate: float, pl: int, clocks: int, pairs: int) -> dict:
    """Median per-pair batch-over-fast speedup for one scenario."""
    cfg = _config(rate, pl, clocks, seed=0)
    fingerprints = set()

    def deterministic(_fast, batch):
        fingerprints.add(batch.statistical_fingerprint())
        if len(fingerprints) != 1:
            raise AssertionError(
                "batch engine is not deterministic: one (config, seed) "
                f"produced {len(fingerprints)} distinct fingerprints"
            )

    summary, fast_s, batch_s = gate.paired(
        pairs,
        lambda: _timed_run(routing, cfg.with_engine("fast")),
        lambda: _timed_run(routing, cfg.with_engine("batch")),
        deterministic,
    )
    r = {"rate": rate, "packet_length": pl, **summary,
         "fast_cpu_s": fast_s, "batch_cpu_s": batch_s, "pairs": pairs}
    print(f"  rate={rate} pl={pl}: median {r['speedup_median']}x "
          f"(min {r['speedup_min']}, max {r['speedup_max']}; "
          f"cpu fast {fast_s}s, batch {batch_s}s)", flush=True)
    return r


def run_benchmarks(quick: bool = False):
    pairs = 2 if quick else 3
    clocks = 1_500 if quick else 3_000
    extras = {
        "scenario": {
            "switches": 256,
            "ports": 6,
            "matrix": [list(m) for m in MATRIX],
            "scale_point_switches": 1024,
            "seed": 0,
        },
    }
    routing = build_down_up_routing(random_irregular_topology(256, 6, rng=11))
    prime_s = _prime_rows(routing, clocks)
    print(f"256sw/6p matrix, {clocks} measured clocks, {pairs} paired runs "
          f"per cell (batch vs fast), rows primed in {prime_s}s", flush=True)
    engines = {
        f"rate{rate}_pl{pl}": measure(routing, rate, pl, clocks, pairs)
        for rate, pl in MATRIX
    }
    median = round(statistics.median(r["speedup_median"] for r in engines.values()), 3)
    print(f"  256sw acceptance median: {median}x", flush=True)

    if not quick:
        extras["speedup_median_256sw"] = median
        # scale point, same load profile and pairing
        routing = build_down_up_routing(random_irregular_topology(1024, 6, rng=11))
        print(f"1024sw scale point, rows primed in {_prime_rows(routing, clocks // 2)}s",
              flush=True)
        engines["scale_1024sw"] = measure(routing, 0.3, 128, clocks // 2, pairs)
    return engines, extras


if __name__ == "__main__":
    raise SystemExit(gate.main(BASELINE, run_benchmarks, "engines"))

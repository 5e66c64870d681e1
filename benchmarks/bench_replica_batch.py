"""Replica-batched driver benchmark and perf-regression gate.

Measures the aggregate-throughput speedup of the fused replica driver
(:func:`repro.simulator.replica_batch.run_replicated`) over R
*sequential* ``engine="batch"`` runs of the same seeds, on 64 switches
/ 8 ports with R = 16 seed replicas.

The matrix has two sections:

* **design regime**: packet length 512 at offered loads
  {0.02, 0.03, 0.05}, the light-load/long-packet points a many-seed
  certification sweep runs at, where the per-clock dispatch the driver
  amortizes dominates.  Their median (``speedup_median_design``) must
  reach 4x in full mode, on top of the regression gate.
* **informational**: heavier points (packet length 128, loads up to
  0.45).  There scalar per-event arbitration, which both drivers share,
  grows toward an Amdahl ceiling near 2.5x (see ``docs/simulator.md``),
  so these cells gate only on regression.

Every pair asserts packing invariance: the R fingerprints of the fused
run equal, seed for seed, those of the R sequential runs.

Pairing, the CLI and the baseline check are ``benchmarks/gate.py``'s;
the committed baseline is ``BENCH_replica_batch.json``.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import gate  # also puts src/ on sys.path
from repro.core.downup import build_down_up_routing
from repro.simulator import SimulationConfig, WormholeSimulator
from repro.simulator.replica_batch import replica_seeds, run_replicated
from repro.topology.generator import random_irregular_topology

BASELINE = Path(__file__).resolve().parent / "BENCH_replica_batch.json"
CONTRACT_MIN_SPEEDUP = 4.0  # design-regime acceptance floor (full mode)

SWITCHES, PORTS, REPLICAS = 64, 8, 16
#: design-regime cells (gated on the >= 4x contract median)
DESIGN_MATRIX = ((0.02, 512), (0.03, 512), (0.05, 512))
#: heavier cells committed for shape documentation (regression-gated only)
INFO_MATRIX = ((0.05, 128), (0.15, 128), (0.15, 512), (0.45, 512))


def _config(rate: float, pl: int, clocks: int) -> SimulationConfig:
    return SimulationConfig(
        packet_length=pl,
        injection_rate=rate,
        warmup_clocks=clocks // 3,
        measure_clocks=clocks,
        seed=42,
        engine="batch",
    )


def measure(routing, rate: float, pl: int, clocks: int, pairs: int) -> dict:
    """Median speedup of one fused run over R sequential ones for one cell."""
    cfg = _config(rate, pl, clocks)
    seeds = replica_seeds(cfg, REPLICAS)

    def sequential():
        return [WormholeSimulator(routing, cfg.with_seed(s)).run() for s in seeds]

    def packing_invariant(seq, fused):
        for r, (a, b) in enumerate(zip(fused, seq)):
            if a.statistical_fingerprint() != b.statistical_fingerprint():
                raise AssertionError(
                    f"replica packing changed replica {r}'s result at "
                    f"rate={rate} pl={pl} (seed {seeds[r]}): fused and "
                    "sequential fingerprints differ"
                )

    summary, _, _ = gate.paired(
        pairs,
        lambda: gate.cpu_time(sequential),
        lambda: gate.cpu_time(run_replicated, routing, cfg, seeds),
        packing_invariant,
    )
    return {"rate": rate, "packet_length": pl, "replicas": REPLICAS, **summary,
            "pairs": pairs}


def run_benchmarks(quick: bool = False):
    pairs = 2 if quick else 3
    clocks = 1_500 if quick else 4_500
    mode = "quick" if quick else "full"
    routing = build_down_up_routing(random_irregular_topology(SWITCHES, PORTS, rng=7))
    # one untimed run builds what the routing derives lazily, so the
    # timed pairs measure the steady state a certification sweep runs in
    prime_s, _ = gate.cpu_time(
        WormholeSimulator(routing, _config(0.45, 128, clocks // 3)).run
    )
    extras = {
        "scenario": {
            "switches": SWITCHES,
            "ports": PORTS,
            "replicas": REPLICAS,
            "design_matrix": [list(m) for m in DESIGN_MATRIX],
            "info_matrix": [list(m) for m in INFO_MATRIX],
            "seed": 42,
        },
        f"prime_seconds_{mode}": round(prime_s, 3),
    }
    print(f"{SWITCHES}sw/{PORTS}p, R={REPLICAS}, {clocks} measured clocks, "
          f"{pairs} paired runs per cell ({REPLICAS} sequential vs fused), "
          f"rows primed in {extras[f'prime_seconds_{mode}']}s", flush=True)
    cells = [("design", m) for m in (DESIGN_MATRIX[:1] if quick else DESIGN_MATRIX)]
    cells += [("info", m) for m in (INFO_MATRIX[1:2] if quick else INFO_MATRIX)]
    engines = {}
    for kind, (rate, pl) in cells:
        r = engines[f"{kind}_rate{rate}_pl{pl}"] = measure(routing, rate, pl, clocks, pairs)
        print(f"  [{kind}] rate={rate} pl={pl}: median {r['speedup_median']}x "
              f"(min {r['speedup_min']}, max {r['speedup_max']})", flush=True)
    design = round(statistics.median(
        r["speedup_median"] for name, r in engines.items() if name.startswith("design")
    ), 3)
    print(f"  design-regime acceptance median: {design}x", flush=True)
    if not quick:
        extras["speedup_median_design"] = design
    return engines, extras


def contract(extras: dict, quick: bool) -> bool:
    """Full runs must keep the design-regime median at 4x or more."""
    if quick:
        return True
    got = extras["speedup_median_design"]
    print(f"  design-regime median: {got}x vs contract {CONTRACT_MIN_SPEEDUP}x -> "
          f"{'ok' if got >= CONTRACT_MIN_SPEEDUP else 'BELOW CONTRACT'}")
    return got >= CONTRACT_MIN_SPEEDUP


if __name__ == "__main__":
    raise SystemExit(gate.main(BASELINE, run_benchmarks, "engines", contract=contract))

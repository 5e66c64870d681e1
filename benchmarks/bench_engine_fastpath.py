"""Fast-path engine benchmark and perf-regression gate.

Measures the clock-loop speedup of the active-set / decision-cache fast
path over the seed reference step implementations on the standard
scenario (64 switches, 4 ports, 128-flit packets, 0.3 injection rate),
for the base engine and the 2-VC engine, and asserts per pair that both
runs give the same digest: a speedup measured against a diverging
simulation would be meaningless.

Pairing, the CLI and the baseline check are ``benchmarks/gate.py``'s;
the committed baseline is ``BENCH_engine_fastpath.json``.  Quick runs
amortize setup over fewer clocks and measure systematically lower
speedups, so they gate against their own section.
"""

from __future__ import annotations

from pathlib import Path

import gate  # also puts src/ on sys.path
from repro.core.downup import build_down_up_routing
from repro.simulator import SimulationConfig, VirtualChannelSimulator, WormholeSimulator
from repro.topology.generator import random_irregular_topology

BASELINE = Path(__file__).resolve().parent / "BENCH_engine_fastpath.json"


def standard_scenario(quick: bool = False):
    """The acceptance scenario: 64 switches, 0.3 load, 128-flit worms."""
    routing = build_down_up_routing(random_irregular_topology(64, 4, rng=64), rng=7)
    cfg = SimulationConfig(
        packet_length=128,
        injection_rate=0.3,
        warmup_clocks=500 if quick else 1_000,
        measure_clocks=2_000 if quick else 5_000,
        seed=7,
    )
    return routing, cfg


def measure(make_sim, cfg, pairs: int) -> dict:
    """Median per-pair speedup of fast over reference; asserts identity."""

    def side(engine):
        return lambda: gate.cpu_time(make_sim(cfg.with_engine(engine)).run)

    def identical(ref, fast):
        if ref.canonical_digest() != fast.canonical_digest():
            raise AssertionError(
                "fast path diverged from the reference engine — "
                "run tests/test_engine_equivalence.py for a minimal repro"
            )

    summary, _, _ = gate.paired(pairs, side("reference"), side("fast"), identical)
    return {**summary, "pairs": pairs}


def run_benchmarks(quick: bool = False):
    routing, cfg = standard_scenario(quick)
    pairs = 3 if quick else 8
    scenario = {
        "switches": 64,
        "ports": 4,
        "packet_length": cfg.packet_length,
        "injection_rate": cfg.injection_rate,
        "measure_clocks": cfg.measure_clocks,
        "seed": cfg.seed,
    }
    print(f"scenario: 64sw/4p, load 0.3, {cfg.measure_clocks} clocks, "
          f"{pairs} paired runs per engine", flush=True)
    makers = {
        "base": lambda c: WormholeSimulator(routing, c),
        "vc": lambda c: VirtualChannelSimulator(routing, c, num_vcs=2),
    }
    engines = {}
    for name, make_sim in makers.items():
        r = engines[name] = measure(make_sim, cfg, pairs)
        print(f"  {name} engine: median {r['speedup_median']}x "
              f"(min {r['speedup_min']}, max {r['speedup_max']})", flush=True)
    # the scenario records the full run length, so a quick write keeps it
    return engines, {} if quick else {"scenario": scenario}


if __name__ == "__main__":
    raise SystemExit(gate.main(BASELINE, run_benchmarks, "engines"))

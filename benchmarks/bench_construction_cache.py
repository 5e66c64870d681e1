"""Construction-cache benchmark and perf-regression gate.

Measures what the content-addressed artifact cache
(:mod:`repro.experiments.artifacts`) eliminates: without it, every work
unit of a campaign rebuilds its (topology, tree, routing) tuple from the
preset seed, once per offered load, algorithm, method and sample.  The
benchmark replays that unit schedule for a Figure-8 port configuration
cold (no cache: every replay rebuilds) against warm (one fresh shared
cache: the first replay builds and publishes, the rest are
checksum-verified disk loads and in-process LRU hits), and asserts per
pair that the cache-served routing tables are byte-identical to the
built ones.

Full mode runs the paper-lite Figure-8 4-port schedule (128 switches,
3 samples, 8 offered loads); quick mode (CI smoke) runs the ``quick``
preset.  Pairing, the CLI and the baseline check are
``benchmarks/gate.py``'s; the committed baseline is
``BENCH_construction_cache.json``, one cell per section.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import gate  # also puts src/ on sys.path
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.configs import get_preset
from repro.experiments.harness import (
    PAPER_ALGORITHMS,
    PAPER_METHODS,
    build_routings,
    make_topology,
)
from repro.routing.serialization import routing_to_json

BASELINE = Path(__file__).resolve().parent / "BENCH_construction_cache.json"


def replay_schedule(preset, ports: int, cache):
    """Replay the construction work of every Figure-8 work unit.

    Mirrors :func:`repro.experiments.parallel.figure8_units` order
    (sample-major, one (method, algorithm) pair per unit, one unit per
    offered load) and :func:`~repro.experiments.parallel.run_unit`'s
    per-unit construction calls exactly.
    """
    last = {}
    for sample in range(preset.samples):
        for method in PAPER_METHODS:
            for alg in PAPER_ALGORITHMS:
                for _rate in preset.rates_for(ports):
                    topo = make_topology(preset, ports, sample, cache=cache)
                    built = build_routings(
                        topo,
                        preset,
                        sample,
                        methods=(method,),
                        algorithms=(alg,),
                        cache=cache,
                    )
                    last[(sample, alg, method)] = built[(alg, method)][0]
    return last


def run_benchmarks(quick: bool = False):
    preset = get_preset("quick" if quick else "paperlite")
    ports = 4
    reps = 3 if quick else 5
    rates = preset.rates_for(ports)
    print(f"scenario: {preset.name} ({preset.n_switches}sw/{ports}p, "
          f"{preset.samples} sample(s), {len(rates)} offered loads), "
          f"{reps} paired cold/warm replays", flush=True)

    def warm():
        with tempfile.TemporaryDirectory(prefix="bench_construction_cache_") as store:
            return gate.cpu_time(
                lambda: replay_schedule(preset, ports, ArtifactCache(Path(store)))
            )

    def identical(built, served):
        for key, routing in built.items():
            if routing_to_json(served[key]) != routing_to_json(routing):
                raise AssertionError(
                    f"cache-served routing diverged from built one: {key} "
                    f"— run tests/test_artifacts.py for a minimal repro"
                )

    summary, cold_s, warm_s = gate.paired(
        reps,
        lambda: gate.cpu_time(replay_schedule, preset, ports, None),
        warm,
        identical,
        metric="ratio",
    )
    cell = {**summary, "cold_median_s": cold_s, "warm_median_s": warm_s, "reps": reps}
    print(f"  median: {cell['ratio_median']}x lower construction time "
          f"(cold {cold_s}s vs warm {warm_s}s)", flush=True)
    scenario = {
        "preset": preset.name,
        "switches": preset.n_switches,
        "ports": ports,
        "samples": preset.samples,
        "unit_replays": len(rates),
    }
    return cell, {f"construction{'_quick' if quick else ''}_scenario": scenario}


if __name__ == "__main__":
    raise SystemExit(
        gate.main(BASELINE, run_benchmarks, "construction", metric="ratio")
    )

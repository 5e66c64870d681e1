"""Experiment scale presets.

The paper's configuration (128 switches, 10 random samples per port
count, 128-flit packets, simulation to saturation) is expensive for a
pure-Python flit-level simulator, so every experiment takes a preset:

``paper``
    The verbatim Section-5 scale.  Hours of CPU; use for final archival
    runs.
``midscale``
    64 switches, 3 samples, 32-flit packets — the scale EXPERIMENTS.md
    records; preserves every qualitative comparison at ~1/50 the cost.
``quick``
    32 switches, 2 samples, 16-flit packets, short windows — minutes;
    used by the ``benchmarks/`` harness.
``tiny``
    16 switches, 1 sample — seconds; integration tests.

All presets exercise identical code paths; only sizes differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.simulator.config import SimulationConfig


@dataclass(frozen=True)
class ExperimentPreset:
    """Scale parameters shared by the figure and table harnesses.

    ``rates`` are the offered loads (flits/clock/node) swept for
    Figure 8 on 4-port networks; 8-port networks offer roughly double
    the bisection, so the sweep is scaled by ``rate_scale_8port``.
    """

    name: str
    n_switches: int
    ports: Tuple[int, ...]
    samples: int
    packet_length: int
    warmup_clocks: int
    measure_clocks: int
    rates: Tuple[float, ...]
    rate_scale_8port: float
    seed: int
    #: step engine for every run in the campaign; ``None`` means the
    #: config default, ``"fast"``.  The bit-exact engines ("reference"
    #: / "fast") give bit-identical results — choosing between them
    #: only trades speed.  The relaxed engine ("batch") is
    #: deterministic per seed but certified only distributionally
    #: (``repro.simulator.equivalence``): its units get engine-variant
    #: ledger digests and results tagged ``equivalence: statistical``.
    engine: Optional[str] = None
    #: seed-replicas per work unit.  1 (default) keeps the classic one
    #: -run-per-unit shape.  R > 1 expands every (sample, algorithm,
    #: method, rate) cell into R units whose seeds follow the
    #: replica-derivation scheme of
    #: :func:`repro.simulator.replica_batch.replica_seeds`; with a
    #: relaxed ``engine`` the runner folds sibling replicas into one
    #: fused :func:`~repro.simulator.replica_batch.run_replicated`
    #: sweep — per-seed results and ledger records are unchanged
    #: (packing invariance), only the wall clock drops.
    replicas: int = 1

    def sim_config(self, seed: int) -> SimulationConfig:
        """Base simulator config (rate is set per sweep point)."""
        return SimulationConfig(
            packet_length=self.packet_length,
            injection_rate=0.0,
            warmup_clocks=self.warmup_clocks,
            measure_clocks=self.measure_clocks,
            seed=seed,
            engine=self.engine,
        )

    def rates_for(self, ports: int) -> Tuple[float, ...]:
        """The Figure-8 offered-load grid for a port count."""
        scale = self.rate_scale_8port if ports >= 8 else 1.0
        return tuple(r * scale for r in self.rates)

    def scaled(self, **overrides) -> "ExperimentPreset":
        """Copy with some fields replaced (CLI ``--samples`` etc.)."""
        return replace(self, **overrides)


PRESETS: Dict[str, ExperimentPreset] = {
    "paper": ExperimentPreset(
        name="paper",
        n_switches=128,
        ports=(4, 8),
        samples=10,
        packet_length=128,
        warmup_clocks=20_000,
        measure_clocks=40_000,
        rates=(0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20, 0.25),
        rate_scale_8port=2.0,
        seed=20040815,
    ),
    "paperlite": ExperimentPreset(
        name="paperlite",
        n_switches=128,
        ports=(4, 8),
        samples=3,
        packet_length=64,
        warmup_clocks=8_000,
        measure_clocks=16_000,
        rates=(0.01, 0.02, 0.035, 0.05, 0.065, 0.08, 0.10, 0.13),
        rate_scale_8port=3.0,
        seed=20040815,
    ),
    "midscale": ExperimentPreset(
        name="midscale",
        n_switches=64,
        ports=(4, 8),
        samples=3,
        packet_length=32,
        warmup_clocks=4_000,
        measure_clocks=10_000,
        rates=(0.02, 0.05, 0.09, 0.13, 0.17, 0.22),
        rate_scale_8port=2.0,
        seed=20040815,
    ),
    "quick": ExperimentPreset(
        name="quick",
        n_switches=32,
        ports=(4, 8),
        samples=2,
        packet_length=16,
        warmup_clocks=1_500,
        measure_clocks=3_500,
        rates=(0.03, 0.08, 0.14, 0.22),
        rate_scale_8port=1.8,
        seed=20040815,
    ),
    "tiny": ExperimentPreset(
        name="tiny",
        n_switches=16,
        ports=(4,),
        samples=1,
        packet_length=8,
        warmup_clocks=400,
        measure_clocks=1_200,
        rates=(0.05, 0.20),
        rate_scale_8port=1.8,
        seed=20040815,
    ),
}


def get_preset(name: str) -> ExperimentPreset:
    """Look up a preset by name with a helpful error."""
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None

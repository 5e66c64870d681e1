"""Statistical A/B certification of relaxed-contract engines.

The bit-exact engines (:data:`~repro.simulator.config.BIT_EXACT_ENGINES`)
are certified by digest equality: one seed, one
``canonical_digest``, byte-for-byte.  The batch engine deliberately
breaks that contract — it arbitrates with random keys instead of
replaying the scalar engines' RNG call sequence — so its correctness
claim is *distributional*: for every seed the run is deterministic,
and across seeds the aggregate statistics (delivered fraction,
latency, hops) are drawn from the same distribution as the oracles'.

This module is that claim's verifier.  The gate runs **paired**
per-seed A/B simulations — same topology, same routing, same seed,
candidate engine vs. a bit-exact oracle — and certifies:

* **paired-t confidence intervals** on the per-seed differences of
  delivered fraction, mean latency, p99 latency and mean hops
  (via :mod:`repro.experiments.statistics`); a metric passes when its
  Bonferroni-adjusted CI contains zero;
* **two-sample Kolmogorov-Smirnov distance** between the pooled
  per-packet latency samples, against the classical asymptotic
  threshold ``c(alpha) * sqrt((n+m)/(n*m))`` from
  :func:`repro.experiments.statistics.ks_threshold`, inflated by
  :data:`KS_INFLATION`.  The iid threshold alone is too tight here:
  per-packet latencies are autocorrelated (queueing — one congested
  interval shifts hundreds of consecutive samples together) and
  clustered by seed, so the *effective* sample size is well below the
  nominal ``n + m`` and null distances routinely sit at the iid
  critical value.  The inflation factor is calibrated on the quick
  matrix (null distances reach ~1.0x the iid threshold; a +20%
  latency shift produces ~4x) and pinned by the calibration
  self-test, which rejects that biased stub with the inflated
  threshold in place.

**Multiplicity.**  One certification is a family of
``scenarios x oracles x (len(METRICS) + 1)`` tests; each individual
test runs at ``alpha / family_size`` (Bonferroni), so the whole gate's
false-rejection rate is bounded by the configured *alpha* under the
null.  The calibration self-test (``tests/test_equivalence_gate.py``)
checks both directions: null pairs pass at no worse than the
configured rate, and a stub engine with +20% latency is rejected.

**Caveats, documented.**  The gate certifies *distributions under the
scenario matrix*, not per-draw equality: the batch engine resolves
multi-candidate claims after single-candidate ones, a contention-
resolution artifact worth a fraction of a clock of mean latency at low
load — well inside the CI at certification sample sizes, and invisible
in hop counts and delivered fractions.  Results produced under this
contract carry a ``statistical_fingerprint`` (never a
``canonical_digest``) and engine-variant ledger identities; see
:meth:`repro.simulator.stats.SimulationStats.statistical_fingerprint`
and :func:`repro.experiments.ledger.unit_digest`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.downup import build_down_up_routing
from repro.simulator.config import (
    BIT_EXACT_ENGINES,
    RELAXED_ENGINES,
    SimulationConfig,
)
from repro.simulator.engine import WormholeSimulator
from repro.simulator.replica_batch import run_replicated
from repro.simulator.traffic import HotspotTraffic, TornadoTraffic
from repro.topology.generator import random_irregular_topology

#: per-seed scalar metrics the paired-t certification covers
METRICS = ("delivered_fraction", "avg_latency", "p99_latency", "avg_hops")

#: calibrated multiplier on the iid two-sample KS threshold,
#: compensating for queueing autocorrelation and per-seed clustering
#: in the pooled latency samples (see the module docstring); the
#: calibration self-test pins the detection margin this leaves
KS_INFLATION = 2.0


@dataclass(frozen=True)
class EquivalenceScenario:
    """One cell of the certification matrix.

    A scenario pins everything but the engine: topology (size, ports,
    generator seed), routing (down/up on the coordinated tree) and the
    traffic configuration — spatial pattern included.  Paired runs
    then differ *only* in the step implementation.
    """

    name: str
    switches: int = 32
    ports: int = 4
    injection_rate: float = 0.3
    packet_length: int = 16
    warmup_clocks: int = 300
    measure_clocks: int = 1200
    topology_seed: int = 0xA11CE
    #: spatial traffic pattern: ``"uniform"`` (default), ``"hotspot"``
    #: (a quarter of the load converging on two switches) or
    #: ``"tornado"`` (fixed half-ring stride, defeats locality)
    traffic: str = "uniform"
    #: per-scenario override of :data:`KS_INFLATION`; ``None`` uses
    #: the module default
    ks_inflation: Optional[float] = None

    def config(self, engine: str, seed: int) -> SimulationConfig:
        return SimulationConfig(
            packet_length=self.packet_length,
            injection_rate=self.injection_rate,
            warmup_clocks=self.warmup_clocks,
            measure_clocks=self.measure_clocks,
            seed=seed,
            engine=engine,
        )

    def traffic_pattern(self):
        """The (stateless) traffic pattern instance, or None (uniform)."""
        if self.traffic == "uniform":
            return None
        if self.traffic == "hotspot":
            return HotspotTraffic(
                self.switches,
                hotspots=(0, self.switches // 2),
                fraction=0.25,
            )
        if self.traffic == "tornado":
            return TornadoTraffic(self.switches)
        raise ValueError(f"unknown traffic pattern {self.traffic!r}")


#: default certification matrix: low load (latency-dominated), mid load
#: (contention appears) and near-saturation (arbitration-dominated) on
#: a quick 32-switch network — small enough for CI, loaded enough to
#: exercise every arbitration path
QUICK_MATRIX: Tuple[EquivalenceScenario, ...] = (
    EquivalenceScenario("quick-low", injection_rate=0.15),
    EquivalenceScenario("quick-mid", injection_rate=0.45),
    EquivalenceScenario("quick-high", injection_rate=0.8),
    # spatially skewed patterns exercise arbitration paths uniform
    # traffic never stresses: hotspot piles contention onto two
    # consumption ports, tornado onto one rotational direction of the
    # tree.  Both run at mid load so the skew (not saturation) is the
    # operative stressor.  Calibration (paired null runs, seeds 0-9):
    # hotspot's null KS distance sits at ~0.77x the iid threshold —
    # inside the default inflation's budget — while tornado's reaches
    # ~0.97x: its fixed stride gives every source one deterministic
    # path, so pooled latencies collapse into per-source modes and the
    # effective sample size drops further than queueing alone explains.
    # Tornado therefore carries a 2.5x inflation (null margin ~2.6x,
    # while the +20% biased stub the self-test injects still lands
    # ~4x the iid threshold and is rejected).
    EquivalenceScenario("quick-hotspot", injection_rate=0.45,
                        traffic="hotspot"),
    EquivalenceScenario("quick-tornado", injection_rate=0.45,
                        traffic="tornado", ks_inflation=2.5),
)


@dataclass(frozen=True)
class MetricTest:
    """Paired-t equivalence test of one scalar metric.

    *mean_difference* is candidate minus oracle over the paired seeds;
    the test passes when the two-sided ``(1 - alpha)`` CI contains
    zero.  Zero-variance differences (e.g. delivered fraction pinned at
    1.0 on both sides) give a zero half-width, and the test reduces to
    exact equality of the means.
    """

    metric: str
    mean_difference: float
    half_width: float
    n: int
    alpha: float

    @property
    def passed(self) -> bool:
        if math.isnan(self.mean_difference):
            return False
        return abs(self.mean_difference) <= self.half_width

    def as_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "mean_difference": self.mean_difference,
            "half_width": self.half_width,
            "n": self.n,
            "alpha": self.alpha,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class KSTest:
    """Two-sample KS test on the pooled latency distributions.

    *threshold* is the iid asymptotic critical value already
    multiplied by *inflation* (:data:`KS_INFLATION` by default).
    """

    distance: float
    threshold: float
    n_candidate: int
    n_oracle: int
    alpha: float
    inflation: float = KS_INFLATION

    @property
    def passed(self) -> bool:
        if math.isnan(self.distance):
            return False
        return self.distance <= self.threshold

    def as_dict(self) -> Dict[str, object]:
        return {
            "distance": self.distance,
            "threshold": self.threshold,
            "n_candidate": self.n_candidate,
            "n_oracle": self.n_oracle,
            "alpha": self.alpha,
            "inflation": self.inflation,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ScenarioVerdict:
    """All tests of one (scenario, oracle) certification cell."""

    scenario: str
    oracle: str
    metric_tests: Tuple[MetricTest, ...]
    ks_test: KSTest
    #: per-seed ``statistical_fingerprint`` of the candidate runs —
    #: the identity these certified results will carry in artefacts
    fingerprints: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.metric_tests) and self.ks_test.passed

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "oracle": self.oracle,
            "passed": self.passed,
            "metrics": [t.as_dict() for t in self.metric_tests],
            "ks": self.ks_test.as_dict(),
            "fingerprints": list(self.fingerprints),
        }


@dataclass(frozen=True)
class EquivalenceReport:
    """The full certification verdict of one candidate engine."""

    candidate: str
    oracles: Tuple[str, ...]
    seeds: Tuple[int, ...]
    family_alpha: float
    per_test_alpha: float
    verdicts: Tuple[ScenarioVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def as_dict(self) -> Dict[str, object]:
        return {
            "candidate": self.candidate,
            "oracles": list(self.oracles),
            "seeds": list(self.seeds),
            "family_alpha": self.family_alpha,
            "per_test_alpha": self.per_test_alpha,
            "passed": self.passed,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }

    def render(self) -> str:
        """Human-readable multi-line summary (the CLI's output)."""
        lines = [
            f"equivalence: {self.candidate} vs {', '.join(self.oracles)} "
            f"({len(self.seeds)} paired seeds, family alpha "
            f"{self.family_alpha}, per-test {self.per_test_alpha:.2g})"
        ]
        for v in self.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            lines.append(f"  [{mark}] {v.scenario} vs {v.oracle}")
            for t in v.metric_tests:
                flag = "ok" if t.passed else "REJECT"
                lines.append(
                    f"      {t.metric:<19} diff {t.mean_difference:+.4g} "
                    f"+- {t.half_width:.4g}  {flag}"
                )
            k = v.ks_test
            flag = "ok" if k.passed else "REJECT"
            lines.append(
                f"      latency KS          {k.distance:.4g} "
                f"<= {k.threshold:.4g}  {flag}"
            )
        lines.append("verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def paired_metric_test(
    metric: str,
    candidate: Sequence[float],
    oracle: Sequence[float],
    alpha: float,
) -> MetricTest:
    """Paired-t CI on per-seed ``candidate - oracle`` differences.

    NaN pairs (a seed where neither side delivered a packet, so the
    latency metrics are the ``nan`` sentinel on both sides) are
    dropped *pairwise*; a one-sided NaN is an engine divergence and
    fails the test through the NaN mean.
    """
    # deferred: repro.experiments pulls in repro.metrics, which imports
    # repro.simulator — a module-level import here would close that
    # cycle when the metrics side loads first
    from repro.experiments.statistics import t_quantile

    a = np.asarray(list(candidate), dtype=float)
    b = np.asarray(list(oracle), dtype=float)
    if a.shape != b.shape or a.size < 2:
        raise ValueError("paired test needs >= 2 aligned seeds")
    both_nan = np.isnan(a) & np.isnan(b)
    a, b = a[~both_nan], b[~both_nan]
    if a.size < 2:
        # a degenerate scenario (nothing ever delivered anywhere) has
        # nothing to compare — equal by construction
        return MetricTest(metric, 0.0, 0.0, int(a.size), alpha)
    diff = a - b
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        return MetricTest(metric, mean, 0.0, int(diff.size), alpha)
    half = (
        t_quantile(diff.size - 1, 1.0 - alpha / 2.0)
        * sd
        / math.sqrt(diff.size)
    )
    return MetricTest(metric, mean, half, int(diff.size), alpha)


def gate_scenario(
    scenario_name: str,
    oracle_name: str,
    candidate_metrics: Sequence[Dict[str, float]],
    oracle_metrics: Sequence[Dict[str, float]],
    candidate_latencies: Sequence[float],
    oracle_latencies: Sequence[float],
    metric_alpha: float,
    ks_alpha: float,
    fingerprints: Sequence[str] = (),
    ks_inflation: float = KS_INFLATION,
) -> ScenarioVerdict:
    """Pure gate over already-collected paired measurements.

    Factored out of :func:`certify` so the calibration self-test can
    drive it with synthetic data (null pairs, biased stubs) without
    running simulations.
    """
    # deferred for the same import-cycle reason as paired_metric_test
    from repro.experiments.statistics import ks_distance, ks_threshold

    tests = tuple(
        paired_metric_test(
            m,
            [row[m] for row in candidate_metrics],
            [row[m] for row in oracle_metrics],
            metric_alpha,
        )
        for m in METRICS
    )
    n, m_ = len(candidate_latencies), len(oracle_latencies)
    if n and m_:
        ks = KSTest(
            ks_distance(candidate_latencies, oracle_latencies),
            ks_inflation * ks_threshold(n, m_, ks_alpha),
            n,
            m_,
            ks_alpha,
            ks_inflation,
        )
    else:
        # no deliveries on either side: distributionally identical;
        # one-sided emptiness is a divergence and must fail
        ks = KSTest(
            0.0 if n == m_ else float("nan"),
            0.0,
            n,
            m_,
            ks_alpha,
            ks_inflation,
        )
    return ScenarioVerdict(
        scenario_name, oracle_name, tests, ks, tuple(fingerprints)
    )


def _scenario_runs(
    scenario: EquivalenceScenario,
    engine: str,
    seeds: Sequence[int],
    routing,
) -> Tuple[List[Dict[str, float]], List[float], List[str]]:
    """Per-seed metric rows, pooled latencies and fingerprints.

    Relaxed candidates run through the replica-batched driver: the
    whole seed set becomes one fused sweep, whose per-replica results
    the packing-invariance contract pins to the sequential runs seed
    for seed — so verdicts are unchanged and the certification pays
    the per-clock dispatch wall once instead of ``len(seeds)`` times.
    """
    traffic = scenario.traffic_pattern()
    if engine in RELAXED_ENGINES and len(seeds) > 1:
        results = run_replicated(
            routing,
            scenario.config(engine, 0),
            seeds=list(seeds),
            traffic=traffic,
        )
    else:
        results = [
            WormholeSimulator(
                routing, scenario.config(engine, seed), traffic=traffic
            ).run()
            for seed in seeds
        ]
    rows: List[Dict[str, float]] = []
    pooled: List[float] = []
    prints: List[str] = []
    for stats in results:
        rows.append(
            {
                "delivered_fraction": stats.delivered_fraction,
                "avg_latency": stats.average_latency,
                "p99_latency": stats.p99_latency,
                "avg_hops": stats.average_hops,
            }
        )
        pooled.extend(float(x) for x in stats.latencies)
        prints.append(stats.statistical_fingerprint())
    return rows, pooled, prints


def certify(
    candidate: str = "batch",
    oracles: Sequence[str] = ("fast",),
    scenarios: Sequence[EquivalenceScenario] = QUICK_MATRIX,
    seeds: Sequence[int] = tuple(range(10)),
    family_alpha: float = 0.05,
    progress=None,
) -> EquivalenceReport:
    """Run the full paired certification of *candidate* vs *oracles*.

    Per (scenario, oracle) cell: one topology + routing built from the
    scenario's generator seed, then ``len(seeds)`` paired runs per
    engine.  The family alpha is split by Bonferroni over every
    individual test in the report, so a fully-null candidate passes
    the *whole* gate with probability at least ``1 - family_alpha``.
    """
    if candidate not in RELAXED_ENGINES + BIT_EXACT_ENGINES:
        raise ValueError(f"unknown candidate engine {candidate!r}")
    for o in oracles:
        if o not in BIT_EXACT_ENGINES:
            raise ValueError(
                f"oracle {o!r} is not bit-exact; oracles must come from "
                f"{BIT_EXACT_ENGINES}"
            )
    seeds = tuple(seeds)
    if len(seeds) < 4:
        raise ValueError("certification needs >= 4 paired seeds")
    say = progress or (lambda msg: None)
    n_tests = len(scenarios) * len(oracles) * (len(METRICS) + 1)
    per_test = family_alpha / n_tests
    verdicts: List[ScenarioVerdict] = []
    for sc in scenarios:
        topo = random_irregular_topology(
            sc.switches, sc.ports, rng=sc.topology_seed
        )
        routing = build_down_up_routing(topo)
        say(f"{sc.name}: candidate {candidate} x{len(seeds)} seeds")
        cand_rows, cand_lat, prints = _scenario_runs(
            sc, candidate, seeds, routing
        )
        for oracle in oracles:
            say(f"{sc.name}: oracle {oracle} x{len(seeds)} seeds")
            or_rows, or_lat, _ = _scenario_runs(sc, oracle, seeds, routing)
            verdicts.append(
                gate_scenario(
                    sc.name,
                    oracle,
                    cand_rows,
                    or_rows,
                    cand_lat,
                    or_lat,
                    per_test,
                    per_test,
                    prints,
                    ks_inflation=(
                        KS_INFLATION
                        if sc.ks_inflation is None
                        else sc.ks_inflation
                    ),
                )
            )
    return EquivalenceReport(
        candidate,
        tuple(oracles),
        seeds,
        family_alpha,
        per_test,
        tuple(verdicts),
    )

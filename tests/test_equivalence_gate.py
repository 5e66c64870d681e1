"""Calibration self-test of the statistical equivalence gate.

A certification gate is only as good as its error rates, so this file
measures them directly on synthetic data driven through the pure
:func:`~repro.simulator.equivalence.gate_scenario` core:

* **false-positive calibration**: when candidate and oracle samples
  come from the *same* distribution (the null), the per-cell rejection
  rate over many trials must stay within a binomial bound of the
  configured alpha — a gate that rejects good engines is useless in
  CI;
* **power**: a stub whose latencies (and latency aggregates) are
  biased +20% must be rejected essentially always — a gate that
  cannot see a 20% latency regression certifies nothing.

A small end-to-end run of :func:`~repro.simulator.equivalence.certify`
against real simulations pins the plumbing (paired seeds, Bonferroni
split, fingerprints, JSON round trip).
"""

import json
import math

import numpy as np
import pytest

from repro.experiments.statistics import ks_threshold
from repro.simulator.equivalence import (
    KS_INFLATION,
    METRICS,
    EquivalenceScenario,
    certify,
    gate_scenario,
    paired_metric_test,
)


def _metric_rows(rng, n_seeds, latency_scale=1.0):
    """Synthetic per-seed metric rows with realistic spreads."""
    rows = []
    for _ in range(n_seeds):
        rows.append(
            {
                "delivered_fraction": 1.0,
                "avg_latency": latency_scale * (40.0 + rng.normal(0, 3.0)),
                "p99_latency": latency_scale * (90.0 + rng.normal(0, 8.0)),
                "avg_hops": 2.6 + rng.normal(0, 0.05),
            }
        )
    return rows


def _latency_samples(rng, n, scale=1.0):
    """Iid integer-ish latency samples (lognormal body, like real runs)."""
    return np.round(scale * rng.lognormal(3.6, 0.45, size=n)).tolist()


class TestNullCalibration:
    def test_null_pairs_pass_at_configured_rate(self):
        """Family rejection rate under the null <= Bonferroni budget.

        Each trial is one certification cell at per-test alpha 0.01
        (family budget 5 x 0.01 = 0.05).  Over 300 independent trials
        the failure count must stay under the one-sided binomial bound
        for p = 0.05 at ~4 sigma (instead of the expectation itself, so
        an unlucky RNG stream cannot flake CI): 15 + 4*sqrt(300*.05*.95)
        ~= 30.
        """
        rng = np.random.default_rng(20260808)
        alpha = 0.01
        trials, failures = 300, 0
        for _ in range(trials):
            cand = _metric_rows(rng, 10)
            orac = _metric_rows(rng, 10)
            verdict = gate_scenario(
                "null", "stub",
                cand, orac,
                _latency_samples(rng, 400), _latency_samples(rng, 400),
                metric_alpha=alpha, ks_alpha=alpha,
            )
            failures += not verdict.passed
        bound = math.ceil(
            trials * 5 * alpha
            + 4 * math.sqrt(trials * 5 * alpha * (1 - 5 * alpha))
        )
        assert failures <= bound, (
            f"null rejection rate {failures}/{trials} exceeds the "
            f"binomial bound {bound} for family alpha {5 * alpha}"
        )

    def test_identical_data_always_passes(self):
        """Bit-equal inputs (a reference-vs-fast style null) never fail."""
        rng = np.random.default_rng(7)
        rows = _metric_rows(rng, 8)
        lats = _latency_samples(rng, 300)
        verdict = gate_scenario(
            "identical", "oracle", rows, rows, lats, lats, 0.001, 0.001
        )
        assert verdict.passed
        for t in verdict.metric_tests:
            assert t.mean_difference == 0.0
        assert verdict.ks_test.distance == 0.0


class TestBiasedStubRejection:
    def test_twenty_percent_latency_bias_rejected(self):
        """+20% latency must be rejected in every trial (gate power)."""
        rng = np.random.default_rng(99)
        for _ in range(25):
            cand = _metric_rows(rng, 10, latency_scale=1.2)
            orac = _metric_rows(rng, 10)
            # pooled latency samples at certification scale (~10 seeds
            # x hundreds of packets), where the inflated KS threshold
            # sits well below a 20% shift's distance
            verdict = gate_scenario(
                "biased", "stub",
                cand, orac,
                _latency_samples(rng, 2000, scale=1.2),
                _latency_samples(rng, 2000),
                metric_alpha=0.01, ks_alpha=0.01,
            )
            assert not verdict.passed, "a +20% latency stub was certified"
            # the latency detectors fire: at least one latency CI
            # excludes zero, and the KS distance clears even the
            # inflated threshold (a distributional shift this large is
            # far outside its sampling noise at this pool size)
            rejected = {
                t.metric for t in verdict.metric_tests if not t.passed
            }
            assert rejected & {"avg_latency", "p99_latency"}
            assert not verdict.ks_test.passed

    def test_small_hop_bias_rejected(self):
        """A systematic hop-count shift is caught by the paired test."""
        rng = np.random.default_rng(5)
        cand = _metric_rows(rng, 10)
        orac = _metric_rows(rng, 10)
        for row in cand:
            row["avg_hops"] += 0.4
        verdict = gate_scenario(
            "hops", "stub", cand, orac,
            _latency_samples(rng, 200), _latency_samples(rng, 200),
            0.01, 0.01,
        )
        assert not verdict.passed


class TestGateMechanics:
    def test_ks_threshold_inflation_applied(self):
        rng = np.random.default_rng(3)
        verdict = gate_scenario(
            "s", "o",
            _metric_rows(rng, 6), _metric_rows(rng, 6),
            _latency_samples(rng, 150), _latency_samples(rng, 250),
            0.01, 0.01,
        )
        assert verdict.ks_test.threshold == pytest.approx(
            KS_INFLATION * ks_threshold(150, 250, 0.01)
        )
        assert verdict.ks_test.inflation == KS_INFLATION

    def test_one_sided_empty_latencies_fail(self):
        rng = np.random.default_rng(3)
        verdict = gate_scenario(
            "s", "o",
            _metric_rows(rng, 6), _metric_rows(rng, 6),
            _latency_samples(rng, 100), [],
            0.01, 0.01,
        )
        assert not verdict.ks_test.passed
        assert not verdict.passed

    def test_both_empty_latencies_pass(self):
        rng = np.random.default_rng(3)
        verdict = gate_scenario(
            "s", "o",
            _metric_rows(rng, 6), _metric_rows(rng, 6),
            [], [],
            0.01, 0.01,
        )
        assert verdict.ks_test.passed

    def test_paired_nan_handling(self):
        # both-sided NaN pairs are dropped; a one-sided NaN must fail
        t = paired_metric_test(
            "avg_latency",
            [1.0, float("nan"), 3.0, 5.0],
            [1.0, float("nan"), 3.0, 5.0],
            0.05,
        )
        assert t.passed
        t = paired_metric_test(
            "avg_latency",
            [1.0, float("nan"), 3.0, 5.0],
            [1.0, 2.0, 3.0, 5.0],
            0.05,
        )
        assert not t.passed

    def test_zero_variance_unequal_means_reject(self):
        t = paired_metric_test(
            "delivered_fraction", [0.9] * 6, [1.0] * 6, 0.05
        )
        assert not t.passed
        assert t.half_width == 0.0

    def test_certify_validates_inputs(self):
        with pytest.raises(ValueError, match="oracle"):
            certify(oracles=("batch",), seeds=range(4))
        with pytest.raises(ValueError, match="candidate"):
            certify(candidate="warp", seeds=range(4))
        with pytest.raises(ValueError, match="seeds"):
            certify(seeds=range(2))


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def tiny_report(self):
        scenario = EquivalenceScenario(
            "tiny",
            switches=16,
            ports=4,
            injection_rate=0.3,
            packet_length=8,
            warmup_clocks=100,
            measure_clocks=400,
            topology_seed=3,
        )
        return certify(
            candidate="batch",
            oracles=("fast",),
            scenarios=(scenario,),
            seeds=range(5),
        )

    def test_real_batch_certifies_on_tiny_scenario(self, tiny_report):
        assert tiny_report.passed, tiny_report.render()
        assert tiny_report.per_test_alpha == pytest.approx(0.05 / 5)
        (verdict,) = tiny_report.verdicts
        assert len(verdict.fingerprints) == 5
        assert all(f.startswith("stat1-") for f in verdict.fingerprints)
        assert {t.metric for t in verdict.metric_tests} == set(METRICS)

    def test_report_json_round_trip(self, tiny_report):
        blob = json.dumps(tiny_report.as_dict())
        back = json.loads(blob)
        assert back["passed"] is True
        assert back["candidate"] == "batch"
        assert back["verdicts"][0]["ks"]["inflation"] == KS_INFLATION

    def test_render_mentions_every_test(self, tiny_report):
        text = tiny_report.render()
        assert "verdict: PASS" in text
        for metric in METRICS:
            assert metric in text
        assert "KS" in text

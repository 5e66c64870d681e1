"""Tests for experiment statistics (CIs and paired comparisons)."""

import math

import pytest

from repro.experiments.statistics import (
    ks_distance,
    ks_threshold,
    normal_quantile,
    paired_compare,
    paired_table_comparison,
    summarize,
    summarize_table_result,
    t_quantile,
    t_quantile_975,
    welch_compare,
)


class TestSummarize:
    def test_single_value(self):
        s = summarize([3.5])
        assert s.mean == 3.5 and s.half_width == 0.0 and s.n == 1

    def test_constant_sample_zero_width(self):
        s = summarize([2.0, 2.0, 2.0])
        assert s.half_width == 0.0

    def test_known_interval(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        sem = 1.0 / math.sqrt(3)
        assert s.half_width == pytest.approx(4.303 * sem, rel=1e-3)
        assert s.low < 2.0 < s.high

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_t_quantiles(self):
        assert t_quantile_975(1) == pytest.approx(12.706)
        # past the table edge the quantile must stay *above* the normal
        # limit, not collapse to a flat 1.96 (the pre-fix behaviour)
        assert t_quantile_975(100) == pytest.approx(1.984, abs=2e-3)
        assert t_quantile_975(120) == pytest.approx(1.980, abs=2e-3)
        with pytest.raises(ValueError):
            t_quantile_975(0)


class TestTQuantileMonotonicity:
    """Regression: the 97.5% quantile was discontinuous at the table edge.

    ``t_quantile_975`` used to jump from 2.042 (dof=30) straight to a
    flat 1.96 (dof=31), silently narrowing every CI computed just past
    the table — these assertions fail on the pre-fix code.
    """

    def test_no_jump_at_table_edge(self):
        gap = t_quantile_975(30) - t_quantile_975(31)
        assert 0 < gap < 0.01  # pre-fix: 2.042 - 1.96 = 0.082

    def test_monotone_decreasing_through_dof_200(self):
        vals = [t_quantile_975(d) for d in range(1, 201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_stays_above_normal_limit(self):
        z = normal_quantile(0.975)
        for dof in (31, 60, 120, 500, 10_000):
            assert t_quantile_975(dof) > z

    def test_converges_to_normal(self):
        assert t_quantile_975(10**7) == pytest.approx(1.95996, abs=1e-4)

    def test_fractional_welch_dof_accepted(self):
        v = t_quantile_975(31.7)
        assert t_quantile_975(32) < v < t_quantile_975(31)


class TestGeneralQuantiles:
    def test_normal_quantile_known_points(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-5)
        assert normal_quantile(0.999) == pytest.approx(3.090232, abs=1e-5)
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)

    def test_t_quantile_known_points(self):
        # textbook values; Cornish-Fisher is good to ~1% for dof >= 4
        assert t_quantile(9, 0.999) == pytest.approx(4.297, rel=0.01)
        assert t_quantile(4, 0.9995) == pytest.approx(8.610, rel=0.06)
        assert t_quantile(30, 0.975) == pytest.approx(2.042, abs=2e-3)
        assert t_quantile(10, 0.025) == pytest.approx(-2.228, abs=2e-3)

    def test_t_quantile_monotone_in_dof(self):
        vals = [t_quantile(d, 0.995) for d in range(2, 100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestWelch:
    def test_obvious_shift_significant(self):
        a = [10.0, 10.1, 9.9, 10.05, 10.0]
        b = [12.0, 12.2, 11.9, 12.1, 12.05]
        assert welch_compare(a, b).significant

    def test_same_population_not_significant(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.5, 1.5, 3.5, 2.0]
        assert not welch_compare(a, b).significant

    def test_zero_variance_sides(self):
        assert not welch_compare([1.0, 1.0], [1.0, 1.0]).significant
        assert welch_compare([1.0, 1.0], [2.0, 2.0]).significant

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_compare([1.0], [1.0, 2.0])


class TestKolmogorovSmirnov:
    def test_identical_samples_zero(self):
        assert ks_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_distance([0, 1, 2], [10, 11, 12]) == pytest.approx(1.0)

    def test_known_distance(self):
        # F_a jumps to 1.0 at 1; F_b is 0 there -> sup diff = 1/2 at x=1
        assert ks_distance([1, 3], [2, 4]) == pytest.approx(0.5)

    def test_threshold_scales(self):
        assert ks_threshold(100, 100, 0.05) == pytest.approx(
            1.358 * math.sqrt(2 / 100), rel=1e-3
        )
        assert ks_threshold(400, 400, 0.05) < ks_threshold(100, 100, 0.05)
        with pytest.raises(ValueError):
            ks_threshold(0, 10)


class TestPaired:
    def test_consistent_difference_is_significant(self):
        a = [1.0, 1.1, 1.2, 1.05]
        b = [0.5, 0.62, 0.71, 0.58]
        cmp = paired_compare(a, b)
        assert cmp.significant
        assert cmp.wins_a == 4 and cmp.wins_b == 0
        assert cmp.mean_difference > 0

    def test_noisy_tie_not_significant(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.0, 1.0, 4.0, 3.0]
        cmp = paired_compare(a, b)
        assert not cmp.significant
        assert cmp.wins_a == 2 and cmp.wins_b == 2

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            paired_compare([1.0], [1.0, 2.0])

    def test_paired_beats_unpaired_sensitivity(self):
        """Per-sample noise shared by both arms cancels in the pairing."""
        base = [10.0, 20.0, 30.0, 40.0, 50.0]
        a = [x + 1.0 for x in base]
        b = list(base)
        cmp = paired_compare(a, b)
        assert cmp.significant  # despite stddev(base) >> 1
        s_a, s_b = summarize(a), summarize(b)
        # unpaired intervals overlap massively
        assert s_a.low < s_b.high


class TestTableHelpers:
    RAW = [
        ("hot", "du", "M1", 4, 0, 10.0),
        ("hot", "du", "M1", 4, 1, 11.0),
        ("hot", "lt", "M1", 4, 0, 13.0),
        ("hot", "lt", "M1", 4, 1, 14.5),
        ("hot", "du", "M1", 8, 0, 9.0),
        ("hot", "lt", "M1", 8, 0, 12.0),
    ]

    def test_summaries(self):
        sums = summarize_table_result(self.RAW)
        assert sums[("hot", "du", "M1", 4)].mean == pytest.approx(10.5)
        assert sums[("hot", "lt", "M1", 8)].n == 1

    def test_paired_table_comparison(self):
        cmp = paired_table_comparison(self.RAW, "hot", "lt", "du")
        assert set(cmp) == {("M1", 4), ("M1", 8)}
        assert cmp[("M1", 4)].mean_difference == pytest.approx(3.25)
        assert cmp[("M1", 4)].wins_a == 2

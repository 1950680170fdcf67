"""Descriptive statistics, Anderson-Darling, and series diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

import evtkit.diagnostics
from evtkit import (
    GofResult,
    Sample,
    anderson_darling,
    describe,
    plotting_positions,
    probability_difference,
    qq_series,
    select_best,
)
from evtkit.errors import DegenerateSampleError, DomainError, EmptyInputError

from conftest import ALL_MM, GEV_MM, GUMBEL_MM, RAIN_MEAN, RAIN_N, RAIN_SD


def ad_by_quadrature(z, panels=1_000_000):
    """Brute-force A2 oracle: n * integral of (F_n - u)^2 / (u(1-u)) du."""
    z = np.sort(np.asarray(z, dtype=float))
    u = (np.arange(panels) + 0.5) / panels
    f_n = np.searchsorted(z, u, side="right") / z.size
    integrand = (f_n - u) ** 2 / (u * (1.0 - u))
    return z.size * float(np.mean(integrand))


class TestDescribe:
    def test_standard_error_and_cv_identities(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=400)
        x = RAIN_MEAN + RAIN_SD * (x - x.mean()) / x.std(ddof=1)
        d = describe(Sample(x))
        assert d.n == 400
        assert d.std_dev == pytest.approx(RAIN_SD, rel=1e-12)
        assert d.std_error == pytest.approx(d.std_dev / math.sqrt(d.n), rel=1e-15)
        assert d.coef_variation_pct == pytest.approx(100 * d.std_dev / d.mean, rel=1e-15)
        assert d.std_dev == pytest.approx(math.sqrt(d.variance), rel=1e-15)

    def test_reference_sample_size_values(self):
        # sd 41.07 at n=51 gives the reference standard error and CV%
        se = RAIN_SD / math.sqrt(RAIN_N)
        assert round(se, 2) == 5.75
        cv = 100 * RAIN_SD / RAIN_MEAN
        assert 36.63 <= round(cv, 2) <= 36.64

    def test_symmetric_triple(self):
        d = describe(Sample(np.array([1.0, 2.0, 3.0])))
        assert d.mean == 2.0
        assert d.variance == 1.0
        assert d.skewness == 0.0
        assert d.range == 2.0

    @pytest.mark.parametrize("factor", [1e300, 1e-300, 5e307])
    def test_extreme_scales(self, factor):
        base = describe(Sample(np.array([1.0, 2.0, 3.0])))
        d = describe(Sample(factor * np.array([1.0, 2.0, 3.0])))
        for name in ("mean", "range", "std_dev", "std_error"):
            assert getattr(d, name) == pytest.approx(factor * getattr(base, name), rel=1e-12), name
        assert d.coef_variation_pct == pytest.approx(base.coef_variation_pct, rel=1e-12)
        assert d.skewness == pytest.approx(base.skewness, abs=1e-12)
        assert d.variance == d.std_dev * d.std_dev

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 200),
        sign=st.sampled_from([1.0, -1.0]),
        k=st.integers(-1000, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=51, sign=1.0, k=-1000, seed=0)
    @example(n=51, sign=-1.0, k=1000, seed=0)
    def test_binary_rescaling_moves_no_bit(self, n, sign, k, seed):
        # Every value lies in [2**5, 2**10), so x * 2**k is normal for every k drawn.
        x = sign * np.random.default_rng(seed).uniform(32.0, 1000.0, n)
        base, scaled = describe(Sample(x)), describe(Sample(x * 2.0**k))
        for name in ("mean", "std_dev", "range"):
            assert getattr(scaled, name) == math.ldexp(getattr(base, name), k), name

    @pytest.mark.parametrize("n, value", [(3, 0.1), (5, 3.0), (7, 0.7668222740913637)])
    def test_equal_values_have_no_spread(self, n, value):
        # The rounded mean of equal values fell outside them: sd 1.7e-17 and skewness -2.45 on (0.1,) * 3.
        d = describe(Sample(np.full(n, value)))
        assert d.mean == value
        assert d.variance == 0.0 and d.std_dev == 0.0 and d.coef_variation_pct == 0.0
        assert math.isnan(d.skewness)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_range_past_the_float_range(self):
        # The deviations from the mean and the range overflowed in the subtraction.
        d = describe(Sample(np.array([1e308, -1e308, 5e307])))
        assert d.range == math.inf and d.variance == math.inf
        assert d.mean == pytest.approx(5e307 / 3, rel=1e-15)
        assert d.std_dev == pytest.approx(1e300 * np.std([1e8, -1e8, 5e7], ddof=1), rel=1e-14)
        assert math.isfinite(d.coef_variation_pct) and math.isfinite(d.skewness)

    def test_matches_scipy_adjusted_estimators(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            x = rng.gamma(2.0, 3.0, size=rng.integers(10, 200))
            d = describe(Sample(x))
            assert d.skewness == pytest.approx(spstats.skew(x, bias=False), rel=1e-10)
            assert d.excess_kurtosis == pytest.approx(
                spstats.kurtosis(x, bias=False, fisher=True), rel=1e-10
            )
            assert d.variance == pytest.approx(np.var(x, ddof=1), rel=1e-12)

    def test_identities_on_random_vectors(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            x = rng.normal(50.0, 5.0, size=rng.integers(4, 100))
            d = describe(Sample(x))
            assert abs(d.std_dev - math.sqrt(d.variance)) < 1e-12
            assert abs(d.std_error - d.std_dev / math.sqrt(d.n)) < 1e-12
            assert abs(d.coef_variation_pct - 100 * d.std_dev / d.mean) < 1e-12

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateSampleError):
            describe(Sample(np.array([1.0])))


class TestAndersonDarling:
    def test_single_point_hand_value(self):
        # F(x1) = 0.5 at the Gumbel median
        s = Sample(np.array([GUMBEL_MM.quantile(0.5)]))
        gof = anderson_darling(s, GUMBEL_MM)
        assert gof.statistic == pytest.approx(-1 + 2 * math.log(2), abs=1e-9)
        assert gof.statistic == pytest.approx(0.38629, abs=1e-5)

    def test_two_point_hand_value(self):
        s = Sample(GUMBEL_MM.quantile(np.array([0.25, 0.75])))
        gof = anderson_darling(s, GUMBEL_MM)
        assert gof.statistic == pytest.approx(0.24934, abs=1e-5)
        assert gof.statistic == pytest.approx(0.249340578475, abs=1e-9)

    def test_pass_gate(self):
        gof = GofResult.from_statistic("gev", 0.333, 0.05, 2.502)
        assert gof.passed
        assert not GofResult.from_statistic("gev", 2.502, 0.05, 2.502).passed
        assert not GofResult.from_statistic("gev", 3.0, 0.05, 2.502).passed

    def test_default_critical_value(self):
        gof = anderson_darling(GEV_MM.sample(51, 0), GEV_MM)
        assert gof.alpha == 0.05
        assert gof.critical_value == 2.502
        assert gof.passed == (gof.statistic < 2.502)

    def test_unknown_alpha_needs_table(self):
        s = GEV_MM.sample(20, 0)
        with pytest.raises(DomainError):
            anderson_darling(s, GEV_MM, alpha=0.01)

    def test_sort_invariance(self):
        s = GEV_MM.sample(51, 33)
        shuffled = Sample(np.random.default_rng(1).permutation(s.values))
        a = anderson_darling(s, GEV_MM)
        b = anderson_darling(shuffled, GEV_MM)
        assert a.statistic == b.statistic

    def test_boundary_observation_is_clamped(self):
        # an observation below the support gives F = 0; the clamp keeps A2 finite
        s = Sample(np.array([-500.0, 100.0, 120.0]))
        gof = anderson_darling(s, GEV_MM)
        assert np.isfinite(gof.statistic)
        assert not gof.passed

    def test_matches_quadrature_oracle(self):
        for seed in range(10):
            s = GEV_MM.sample(20, seed)
            gof = anderson_darling(s, GEV_MM)
            z = GEV_MM.cdf(s.sorted_values())
            assert gof.statistic == pytest.approx(ad_by_quadrature(z), abs=1e-3)

    def test_calibration_at_true_parameters(self):
        passes = sum(
            anderson_darling(GEV_MM.sample(51, seed), GEV_MM).passed for seed in range(100)
        )
        assert passes >= 90


class TestQqSeries:
    def test_single_point_gumbel_median(self):
        s = Sample(np.array([100.0]))
        qq = qq_series(s, GUMBEL_MM)
        expected = 93.61 - 32.02 * math.log(math.log(2.0))
        assert qq.theoretical[0] == pytest.approx(expected, rel=1e-12)
        assert qq.observed[0] == 100.0
        assert qq.positions[0] == 0.5

    def test_self_consistent_construction_lies_on_identity(self):
        n = 50
        p = plotting_positions(n)
        s = Sample(GEV_MM.quantile(p))
        qq = qq_series(s, GEV_MM)
        assert np.max(np.abs(qq.theoretical - qq.observed)) < 1e-9

    def test_both_coordinates_non_decreasing(self):
        s = GEV_MM.sample(101, 2)
        qq = qq_series(s, GEV_MM)
        assert np.all(np.diff(qq.theoretical) >= 0)
        assert np.all(np.diff(qq.observed) >= 0)

    def test_positions_formula(self):
        assert np.allclose(plotting_positions(4), [0.2, 0.4, 0.6, 0.8])

    @pytest.mark.parametrize("n", [2.5, -1, 0, math.nan, None, "3"])
    def test_positions_need_a_whole_size_of_at_least_one(self, n):
        with pytest.raises(DomainError, match="sample size"):
            plotting_positions(n)

    @pytest.mark.parametrize("n", [1, 7, np.int64(7)])
    def test_positions_are_a_new_array_per_call(self, n):
        # Nothing is cached across samples: each call makes its own array.
        assert plotting_positions(n) is not plotting_positions(n)
        assert np.array_equal(plotting_positions(n), np.arange(1, n + 1) / (n + 1.0))

    def test_series_of_one_sample_share_its_positions(self, monkeypatch):
        # Every family's qq and probability-difference series of one sample read one positions
        # array, kept on the sample; a second sample of the same size makes its own.
        made = []

        def recorded(n):
            made.append(plotting_positions(n))
            return made[-1]

        monkeypatch.setattr(evtkit.diagnostics, "plotting_positions", recorded)
        for seed in (1, 2):
            sample = GEV_MM.sample(40, seed)
            for dist in ALL_MM:
                diff, qq = probability_difference(sample, dist), qq_series(sample, dist)
                assert qq.positions is made[-1]
                assert np.array_equal(diff.diff, qq.positions - dist.cdf(diff.x))
        assert len(made) == 2 and made[0] is not made[1]

    def test_positions_are_read_only(self):
        positions = plotting_positions(5)
        with pytest.raises(ValueError):
            positions[0] = 0.0
        assert np.array_equal(plotting_positions(5), [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6])


class TestProbabilityDifference:
    def test_exact_construction_gives_zero(self):
        p = plotting_positions(50)
        s = Sample(GEV_MM.quantile(p))
        series = probability_difference(s, GEV_MM)
        assert np.max(np.abs(series.diff)) < 1e-9

    def test_bounded_by_one(self):
        s = GEV_MM.sample(200, 9)
        series = probability_difference(s, GUMBEL_MM)
        assert np.all(np.abs(series.diff) <= 1.0)

    def test_single_median_point(self):
        s = Sample(np.array([GUMBEL_MM.quantile(0.5)]))
        series = probability_difference(s, GUMBEL_MM)
        assert series.diff[0] == pytest.approx(0.0, abs=1e-12)


class TestSelectBest:
    def _gof(self, family, statistic, passed=True):
        return GofResult(family, statistic, 0.05, 2.502, passed)

    def test_reference_statistics_pick_gev(self):
        gofs = [
            self._gof("gumbel", 0.381),
            self._gof("frechet", 0.844),
            self._gof("weibull", 1.405),
            self._gof("gev", 0.333),
        ]
        assert select_best(gofs) == "gev"

    def test_single_failing_entry_still_selected(self):
        assert select_best([self._gof("weibull", 5.0, passed=False)]) == "weibull"

    def test_failing_entries_lose_to_passing(self):
        gofs = [self._gof("gumbel", 0.1, passed=False), self._gof("gev", 0.9)]
        assert select_best(gofs) == "gev"

    def test_tie_breaks_by_family_order(self):
        gofs = [self._gof("weibull", 0.5), self._gof("frechet", 0.5)]
        assert select_best(gofs) == "frechet"

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            select_best([])

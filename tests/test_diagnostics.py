"""Descriptive statistics, Anderson-Darling, and series diagnostics."""

import math

import numpy as np
import pytest
from scipy import stats as spstats

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

from conftest import GEV_MM, GUMBEL_MM, RAIN_MEAN, RAIN_N, RAIN_SD


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

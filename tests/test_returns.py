"""Return levels: closed-form values, quantile identity, monotonicity."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtkit import (
    GEV,
    Frechet,
    Gumbel,
    ReturnSpec,
    Sample,
    Weibull,
    return_curve,
    return_level,
    return_level_table,
)
from evtkit.errors import DomainError

from conftest import ALL_MM, GEV_MM, GUMBEL_MM, bisect_quantile

# Frozen high-precision values of the closed form at the reference GEV
# parameters, cross-checked below by bisection on the cdf.
GEV_MM_RETURN_LEVELS = {
    5: 140.829251779,
    10: 166.738966709,
    50: 228.04278968,
    100: 255.842843686,
    200: 284.724253526,
}

# An inconsistent hand-tabulated set sometimes quoted for these parameters;
# it does not follow from them (see the discrepancy guard below).
INCONSISTENT_REFERENCE_LEVELS = {5: 169.67, 10: 196.94, 50: 261.39, 100: 290.61, 200: 320.98}


class TestReturnLevel:
    @pytest.mark.parametrize("period,expected", sorted(GEV_MM_RETURN_LEVELS.items()))
    def test_gev_reference_values(self, period, expected):
        level = return_level(GEV_MM, period)
        assert level == pytest.approx(expected, abs=1e-6)
        assert level == pytest.approx(bisect_quantile(GEV_MM, 1 - 1 / period), rel=1e-9)

    @pytest.mark.parametrize("period", sorted(INCONSISTENT_REFERENCE_LEVELS))
    def test_inconsistent_reference_values_rejected(self, period):
        # guard: the alternative tabulation is 29-37 mm off and must not match
        level = return_level(GEV_MM, period)
        assert abs(level - INCONSISTENT_REFERENCE_LEVELS[period]) > 20.0

    def test_gumbel_hand_value(self):
        expected = 93.61 - 32.02 * math.log(-math.log(0.9))
        level = return_level(GUMBEL_MM, 10)
        assert level == pytest.approx(expected, rel=1e-12)
        assert level == pytest.approx(165.67, abs=0.01)

    def test_equals_quantile_for_all_families(self):
        rng = np.random.default_rng(6)
        periods = 1.01 + (1e4 - 1.01) * rng.random(50)
        for dist in ALL_MM:
            for period in periods:
                assert return_level(dist, period) == pytest.approx(
                    dist.quantile(1 - 1 / period), abs=1e-12, rel=1e-12
                )

    def test_monotone_in_period(self, reference_dist):
        periods = np.geomspace(1.01, 1e4, 200)
        levels = [return_level(reference_dist, p) for p in periods]
        assert np.all(np.diff(levels) > 0)

    def test_exceedance_probability_is_one_over_period(self, reference_dist):
        for period in (5.0, 10.0, 50.0, 100.0, 200.0):
            level = return_level(reference_dist, period)
            assert 1.0 - reference_dist.cdf(level) == pytest.approx(1 / period, abs=1e-12)

    def test_gumbel_limit_agreement(self):
        for shape in (1e-12, -1e-12):
            gev = GEV(93.61, 32.02, shape)
            for period in (2.0, 10.0, 100.0, 1000.0):
                assert abs(return_level(gev, period) - return_level(GUMBEL_MM, period)) < 1e-6

    @pytest.mark.parametrize("period", [1.0, 0.5, -3.0, np.inf])
    def test_rejects_bad_period(self, period):
        with pytest.raises(DomainError):
            return_level(GEV_MM, period)

    def test_rejects_period_whose_probability_rounds_to_one(self):
        # 1 - 1/period rounds to 1 from about 1.8e16 up, and quantile(1.0) is rejected.
        for period in (2.0**54, 1e17, 1e300):
            assert 1.0 - 1.0 / period == 1.0
            with pytest.raises(DomainError, match=re.escape(f"return period {period!r} is too large")):
                return_level(GEV_MM, period)
            with pytest.raises(DomainError, match="too large"):
                ReturnSpec((5.0, period))
            with pytest.raises(DomainError, match="too large"):
                return_curve(GEV_MM, 2.0, period, 8)

    @pytest.mark.parametrize("period", [1e16, 2.0**54 * (1.0 - 2.0**-52)])
    def test_largest_periods_keep_their_levels(self, period):
        assert 1.0 - 1.0 / period < 1.0
        level = float(GEV_MM.quantile(1.0 - 1.0 / period))
        assert return_level(GEV_MM, period) == level
        assert return_level_table(GEV_MM, ReturnSpec((5.0, period))).levels[-1] == level
        assert return_curve(GEV_MM, 2.0, period, 2)[-1][1] == level


class TestReturnLevelTable:
    def test_default_periods_five_rows_increasing(self):
        table = return_level_table(GEV_MM, ReturnSpec())
        assert len(table.entries) == 5
        assert table.periods == (5.0, 10.0, 50.0, 100.0, 200.0)
        assert np.all(np.diff(table.levels) > 0)

    def test_entries_match_scalar_op(self):
        table = return_level_table(GEV_MM, ReturnSpec((5.0, 10.0, 50.0, 100.0, 200.0)))
        for period, level in table.entries:
            assert level == return_level(GEV_MM, period)

    def test_growth_continues_to_200_years(self):
        table = return_level_table(GEV_MM, ReturnSpec())
        levels = dict(table.entries)
        assert levels[200.0] > levels[100.0] > levels[50.0]

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            ReturnSpec(())
        with pytest.raises(DomainError):
            ReturnSpec((5.0, 5.0))
        with pytest.raises(DomainError):
            ReturnSpec((10.0, 5.0))
        with pytest.raises(DomainError):
            ReturnSpec((1.0, 5.0))


class TestReturnCurve:
    def test_two_points_are_endpoints(self):
        curve = return_curve(GEV_MM, 2.0, 100.0, 2)
        assert curve[0][0] == 2.0 and curve[-1][0] == 100.0
        assert curve[0][1] == return_level(GEV_MM, 2.0)
        assert curve[-1][1] == return_level(GEV_MM, 100.0)

    def test_strictly_increasing_levels(self):
        curve = return_curve(GEV_MM, 1.5, 500.0, 64)
        levels = [v for _, v in curve]
        assert np.all(np.diff(levels) > 0)

    def test_log_spacing(self):
        curve = return_curve(GEV_MM, 10.0, 1000.0, 3)
        periods = [p for p, _ in curve]
        assert periods[1] == pytest.approx(100.0, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p_min=st.floats(1.01, 1e15), ulps=st.integers(0, 4), n_points=st.integers(2, 300))
    @example(p_min=3.3, ulps=0, n_points=256)
    @example(p_min=3.3, ulps=1, n_points=256)
    def test_periods_stay_between_close_ends(self, p_min, ulps, n_points):
        # geomspace(3.3, 3.3, 256) holds 3.2999999999999994 between its two ends.
        p_max = p_min
        for _ in range(ulps):
            p_max = math.nextafter(p_max, math.inf)
        periods = [p for p, _ in return_curve(GEV_MM, p_min, p_max, n_points)]
        assert all(p_min <= p <= p_max for p in periods)
        assert all(a <= b for a, b in zip(periods, periods[1:]))
        if ulps == 0:
            assert periods == [p_min] * n_points

    def test_validation(self):
        with pytest.raises(DomainError):
            return_curve(GEV_MM, 1.0, 100.0, 8)
        with pytest.raises(DomainError):
            return_curve(GEV_MM, 50.0, 10.0, 8)
        with pytest.raises(DomainError):
            return_curve(GEV_MM, 2.0, 100.0, 1)
        for n_points in (2.7, "3", math.nan, None):
            with pytest.raises(DomainError, match="curve points"):
                return_curve(GEV_MM, 2.0, 100.0, n_points)


_LOCATIONS = st.floats(-1e4, 1e4)
_SCALES = st.floats(1e-3, 1e4)
_RECORDS = st.one_of(
    st.builds(Gumbel, _LOCATIONS, _SCALES),
    st.builds(Frechet, st.floats(0.05, 20.0), _SCALES),
    st.builds(Weibull, st.floats(0.05, 20.0), _SCALES),
    st.builds(GEV, _LOCATIONS, _SCALES, st.one_of(st.just(0.0), st.floats(-2.0, 2.0))),
)
_PERIODS = st.lists(st.floats(1.01, 1e15), min_size=1, max_size=12, unique=True).map(sorted)


def _bits(values):
    return [float(v).hex() for v in values]


class TestOnePathForEveryPeriod:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dist=_RECORDS, periods=_PERIODS, n_points=st.integers(2, 9))
    def test_table_and_curve_ends_equal_return_level(self, dist, periods, n_points):
        # One vectorized quantile call gives each period the bits of its own scalar call.
        expected = [return_level(dist, period) for period in periods]
        table = return_level_table(dist, ReturnSpec(tuple(periods)))
        assert table.periods == tuple(periods)
        assert _bits(table.levels) == _bits(expected)
        curve = return_curve(dist, periods[0], periods[-1], n_points)
        assert len(curve) == n_points
        assert (curve[0][0], curve[-1][0]) == (periods[0], periods[-1])
        assert _bits([curve[0][1], curve[-1][1]]) == _bits([expected[0], expected[-1]])

    @pytest.mark.parametrize("dist", [GEV(0.0, 1.0, 200.0), Frechet(0.002, 1.0), Weibull(0.001, 1.0)])
    def test_levels_beyond_the_float_range_are_inf_without_warning(self, dist):
        # The suite turns an escaping RuntimeWarning into an error.
        assert dist.quantile(0.999) == math.inf
        assert return_level(dist, 1e6) == math.inf
        assert return_level_table(dist, ReturnSpec()).levels[-1] == math.inf
        try:
            assert isinstance(dist.sample(5, 1), Sample)
        except DomainError:
            pass

    def test_curve_end_at_inf_is_too_large(self):
        with pytest.raises(DomainError, match="return period inf is too large"):
            return_curve(GEV_MM, 2.0, math.inf, 8)

    @pytest.mark.parametrize("periods", [(5.0, 0.5, 1e17), (5.0, math.nan, 1.0), (5.0, 1e17, 0.5)])
    def test_error_names_the_first_bad_period(self, periods):
        message = f"return period {re.escape(repr(periods[1]))} "
        with pytest.raises(DomainError, match=message):
            ReturnSpec(periods)
        with pytest.raises(DomainError, match=message):
            return_level(GEV_MM, periods[1])
        with pytest.raises(DomainError, match=message):
            return_curve(GEV_MM, periods[1], periods[2], 8)

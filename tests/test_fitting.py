"""Maximum-likelihood fitting: oracles, recovery, and batch behavior."""

import contextlib
import functools
import itertools
import math
import sys
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

import evtkit
import evtkit.fitting
from evtkit import (
    FAMILIES,
    GEV,
    Frechet,
    Gumbel,
    Weibull,
    Sample,
    fit_all,
    fit_mle,
    initial_params,
    load_csv,
    log_likelihood,
)
from evtkit.errors import DegenerateSampleError, DomainError
from evtkit.distributions import EULER_GAMMA
from evtkit.fitting import _UNIT_SD_SCALE, _gev_objective
from evtkit.sample import binary_unit, standardize
from evtkit.simplex import SimplexResult, nelder_mead

from conftest import GEV_MM, GUMBEL_MM, RAIN_MEAN, RAIN_SD, run_python

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


class TestLogLikelihood:
    def test_single_point_hand_value(self):
        s = Sample(np.array([93.61]))
        assert log_likelihood(GUMBEL_MM, s) == pytest.approx(-(1 + math.log(32.02)), abs=1e-12)

    def test_support_violation_is_minus_inf(self):
        assert log_likelihood(GEV_MM, Sample(np.array([-500.0]))) == -np.inf

    def test_a_record_far_from_the_data_is_evaluated_in_data_units(self):
        # At the data's unit these records would have a location or a scale past
        # the float range, or a scale of 0 or a subnormal one.
        for dist, x in (
            (Gumbel(1e300, 1.0), [1e-10, 2e-10]),
            (Gumbel(0.0, 1e300), [1e-10, 2e-10]),
            (Gumbel(1e10, 1e-300), [1e10, 1e10]),
            (Gumbel(1e30, 1e-300), [1e30, 1e30]),
        ):
            s = Sample(np.array(x))
            assert log_likelihood(dist, s) == float(np.sum(dist.log_pdf(s.values))), dist

    def test_additivity(self):
        x = 140.0
        one = log_likelihood(GEV_MM, Sample(np.array([x])))
        two = log_likelihood(GEV_MM, Sample(np.array([x, x])))
        assert two == pytest.approx(2 * one, rel=1e-14)


class TestInitialParams:
    def test_gumbel_moment_matching(self):
        # a sample engineered to have the reference mean and sd
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        x = (x - x.mean()) / x.std(ddof=1)
        s = Sample(RAIN_MEAN + RAIN_SD * x)
        init = initial_params("gumbel", s)
        assert init.scale == pytest.approx(RAIN_SD * math.sqrt(6) / math.pi, rel=1e-12)
        assert init.scale == pytest.approx(32.02, abs=0.005)
        assert init.location == pytest.approx(93.61, abs=0.005)

    def test_gev_adds_fixed_shape(self):
        s = GEV_MM.sample(100, 5)
        init = initial_params("gev", s)
        assert init.shape == 0.0
        gum = initial_params("gumbel", s)
        assert init.location == gum.location and init.scale == gum.scale

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            initial_params("gumbel", Sample(np.full(10, 7.0)))

    def test_too_small_rejected(self):
        with pytest.raises(DegenerateSampleError):
            initial_params("gev", Sample(np.array([1.0])))

    def test_positive_families_need_positive_data(self):
        s = Sample(np.array([-1.0, 2.0, 3.0, 4.0]))
        for family in ("frechet", "weibull"):
            with pytest.raises(DomainError):
                initial_params(family, s)

    def test_log_moment_inits_are_in_domain(self):
        for seed, dist in ((1, GEV_MM), (2, GUMBEL_MM)):
            s = dist.sample(200, seed)
            if np.any(s.values <= 0):
                continue
            for family in ("frechet", "weibull"):
                init = initial_params(family, s)
                assert init.shape > 0 and init.scale > 0

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            initial_params("cauchy", Sample(np.array([1.0, 2.0, 3.0])))


class TestFitMle:
    def test_gev_simulation_recovery(self):
        s = GEV_MM.sample(2000, 7)
        fit = fit_mle("gev", s)
        assert fit.converged
        assert abs(fit.params.location - 92.41) <= 2.0
        assert abs(fit.params.scale - 30.85) <= 2.0
        assert abs(fit.params.shape - 0.06) <= 0.05

    def test_never_worse_than_init(self):
        s = GEV_MM.sample(2000, 7)
        fit = fit_mle("gev", s)
        assert fit.log_likelihood >= log_likelihood(fit.initial_params, s) - 1e-9

    def test_local_maximum(self):
        s = GEV_MM.sample(2000, 7)
        fit = fit_mle("gev", s)
        base = fit.log_likelihood
        p = fit.params
        for d_loc, d_scale, d_shape in (
            (1e-3, 0, 0), (-1e-3, 0, 0),
            (0, 1e-3, 0), (0, -1e-3, 0),
            (0, 0, 1e-3), (0, 0, -1e-3),
        ):
            moved = GEV(p.location + d_loc, p.scale + d_scale, p.shape + d_shape)
            assert log_likelihood(moved, s) <= base + 1e-6

    def test_gumbel_fit_on_gumbel_data(self):
        s = GUMBEL_MM.sample(2000, 11)
        fit = fit_mle("gumbel", s)
        assert fit.converged
        assert abs(fit.params.location - 93.61) <= 2.5
        assert abs(fit.params.scale - 32.02) <= 2.0

    def test_positive_family_fits_recover(self):
        from conftest import FRECHET_MM, WEIBULL_MM

        for family, dist in (("frechet", FRECHET_MM), ("weibull", WEIBULL_MM)):
            s = dist.sample(2000, 13)
            fit = fit_mle(family, s)
            assert fit.converged
            assert fit.params.shape == pytest.approx(dist.shape, rel=0.1)
            assert fit.params.scale == pytest.approx(dist.scale, rel=0.05)

    def test_bounded_tail_recovery(self):
        truth = GEV(100.0, 15.0, -0.25)
        s = truth.sample(2000, 29)
        fit = fit_mle("gev", s)
        assert fit.converged
        assert fit.params.shape == pytest.approx(-0.25, abs=0.05)
        # fitted support must still contain every observation
        lo, hi = fit.params.support()
        assert np.all(s.values > lo) and np.all(s.values < hi)

    def test_deterministic(self):
        s = GEV_MM.sample(300, 21)
        a = fit_mle("gev", s)
        b = fit_mle("gev", s)
        assert a == b

    @pytest.mark.parametrize(
        "truth, n, seed, repaired",
        [
            (GEV(354.0139391349414, 29.210953233708477, -0.7875305151456555), 62, 1056949775, False),
            (GEV(178.76720340728252, 10.21365338981355, -0.9600936188265381), 155, 722177042, True),
        ],
        ids=["on-the-support", "stepped-outward"],
    )
    def test_fit_off_the_support_in_data_units_steps_back_onto_it(self, truth, n, seed, repaired):
        # The search converges near shape -1 on standardized data; mapped back
        # to data units, rounding can put the upper end of the support onto the
        # maximum, and the fit was then replaced by its start. Stepping the
        # location outward keeps it. The first sample no longer lands there; the
        # second does, on numpy's AVX2 and AVX-512 kernels alike, so the fitted
        # GEV is evaluated again after the step.
        s = truth.sample(n, seed)
        with unittest.mock.patch.object(evtkit.fitting, "log_likelihood", wraps=log_likelihood) as evaluated:
            fit = fit_mle("gev", s)
        assert [type(c.args[0]) for c in evaluated.call_args_list].count(GEV) >= 1 + repaired
        assert fit.converged
        assert math.isfinite(fit.log_likelihood)
        assert fit.log_likelihood >= fit_mle("gumbel", s).log_likelihood
        assert log_likelihood(fit.params, s) == fit.log_likelihood

    def test_small_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            fit_mle("gumbel", Sample(np.array([1.0, 2.0])))

    def test_iteration_budget_flags_nonconvergence(self, monkeypatch):
        s = GEV_MM.sample(500, 3)
        search = functools.partial(evtkit.fitting._search, max_iterations=2)
        monkeypatch.setattr(evtkit.fitting, "_search", search)
        fit = fit_mle("gumbel", s)
        assert not fit.converged
        assert fit.iterations <= 2
        # still returns the best point found, never worse than the start
        assert fit.log_likelihood >= log_likelihood(fit.initial_params, s) - 1e-9

    def test_shift_scale_equivariance(self):
        s = GUMBEL_MM.sample(400, 17)
        base = fit_mle("gumbel", s)
        a, c = 2.5, 40.0
        moved = fit_mle("gumbel", Sample(a * s.values + c))
        assert moved.params.location == pytest.approx(a * base.params.location + c, rel=1e-4)
        assert moved.params.scale == pytest.approx(a * base.params.scale, rel=1e-4)


@st.composite
def _tied_samples(draw):
    """Distinct GEV draws, k of which are then set to one value: the minimum, one in the middle, or the maximum."""
    n = draw(st.integers(3, 200))
    where = draw(st.sampled_from(["minimum", "middle", "maximum"] if n >= 4 else ["minimum", "maximum"]))
    k = draw(st.integers(2, n - 2) if where == "middle" else st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.sort(GEV_MM.sample(n, int(rng.integers(2**32))).values)  # distinct with probability 1
    if where == "minimum":
        x[:k] = x[0]
    elif where == "maximum":
        x[n - k :] = x[-1]
    else:  # below x[j + k], above x[j - 1]
        j = draw(st.integers(1, n - k - 1))
        x[j : j + k] = x[j]
    return where, k, Sample(rng.permutation(x))


class TestTiesAtTheMinimum:
    """Where over half of the values tie at the minimum, the GEV likelihood has no maximum: no search runs."""

    @staticmethod
    def assert_no_search(sample):
        gumbel, gev = fit_mle("gumbel", sample), fit_mle("gev", sample)
        start = GEV(gumbel.params.location, gumbel.params.scale, 0.0)
        assert gev == evtkit.fitting.FitResult(start, log_likelihood(start, sample), False, 0, 0, start)
        assert [o.result for o in fit_all(sample)][3] == gev

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_tied_samples())
    def test_a_search_runs_unless_over_half_tie_at_the_minimum(self, tied):
        where, k, sample = tied
        if where == "minimum" and k > sample.n / 2:
            self.assert_no_search(sample)
        else:
            assert fit_mle("gev", sample).n_evaluations > 0

    @pytest.mark.parametrize("n", [3, 4, 5, 23, 40, 145, 200])
    def test_the_rule_turns_at_half(self, n):
        x = np.sort(GEV_MM.sample(n, n).values)
        half = n // 2
        x[: half + 1] = x[0]
        self.assert_no_search(Sample(x))
        x[half] = np.nextafter(x[0], np.inf)  # half of the values at the minimum, or fewer for odd n
        assert fit_mle("gev", Sample(x)).n_evaluations > 0

    def test_the_degenerate_fit_of_four_values_reports_its_start(self):
        # The search ended at scale 6.5e-15 and shape 0.874, "converged", with log-likelihood 51.1.
        self.assert_no_search(Sample(np.array([35.0, 0.0, 0.0, 0.0])))


# The sample behind data/synthetic_annual_maxima.csv. The file was written by
# `simulate` before the GEV quantile took its log1p/expm1 form, so 44 of its 51
# values differ from this sample, by at most 5.7e-16 relative; the file is kept
# as written, and TestRepositoryFixturePinned reads it.
FIXTURE = GEV_MM.sample(51, 22)
FIXTURE_SD = float(np.std(FIXTURE.values, ddof=1))
FIXTURE_FITS = {o.family: o.result.params for o in fit_all(FIXTURE)}

# Five values whose GEV fit converges at the shape floor, at shape -1.00.
FLOOR_SAMPLE = np.array([1.0, 2.0, 3.0, 4.0, 4.2])
FLOOR_FIT = fit_mle("gev", Sample(FLOOR_SAMPLE))


class TestGumbelOfLogData:
    """Frechet and Weibull are fitted as the Gumbel of log(x/u) and -log(x/u), bit for bit, u the unit of x."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 200),
        log_location=st.floats(-20.0, 20.0),
        log_sd=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fits_are_the_mapped_gumbel_fits(self, n, log_location, log_sd, seed):
        x = np.exp(log_location + log_sd * np.random.default_rng(seed).standard_normal(n))
        unit = binary_unit(x, logarithmic=True)
        for family, work, mapped in (
            ("frechet", np.log(x / unit), lambda g: Frechet(1.0 / g.scale, unit * math.exp(g.location))),
            ("weibull", -np.log(x / unit), lambda g: Weibull(1.0 / g.scale, unit * math.exp(-g.location))),
        ):
            fit, gumbel = fit_mle(family, Sample(x)), fit_mle("gumbel", Sample(work))
            assert repr(fit.params) == repr(mapped(gumbel.params)), family
            assert repr(fit.initial_params) == repr(mapped(gumbel.initial_params)), family
            assert (fit.iterations, fit.n_evaluations, fit.converged) == (
                gumbel.iterations,
                gumbel.n_evaluations,
                gumbel.converged,
            ), family


class TestGumbelProfileFit:
    """The Gumbel-type fits search log(scale) alone, the location at its maximum at each scale."""

    @staticmethod
    def two_dimensional_fit(s):
        # Nelder-Mead over location and log(scale) of the kernel, on standardized data.
        mean, sd = float(np.mean(s.values)), float(np.std(s.values, ddof=1))
        data = (s.values - mean) / sd
        scale = _UNIT_SD_SCALE

        def nll(theta):
            value = -float(GEV.log_density(data, *theta).sum())
            return value if math.isfinite(value) else math.inf

        best = nelder_mead(nll, [-EULER_GAMMA * scale, math.log(scale)], initial_steps=[0.1 * scale, 0.1])
        assert best.converged
        return Gumbel(mean + sd * best.x[0], sd * math.exp(best.x[1]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 200),
        location=st.floats(-100.0, 100.0),
        scale=st.floats(0.1, 100.0),
        shape=st.sampled_from([None]) | st.floats(-0.9, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_meets_the_score_equation_and_the_two_dimensional_search(self, n, location, scale, shape, seed):
        s = (Gumbel(location, scale) if shape is None else GEV(location, scale, shape)).sample(n, seed)
        fit = fit_mle("gumbel", s)
        assert fit.converged
        # At the location's maximum, sum(exp(-z)) = n for z = (x - location) / scale.
        z = (s.values - fit.params.location) / fit.params.scale
        assert float(np.sum(np.exp(-z))) == pytest.approx(n, rel=1e-12)
        assert fit.log_likelihood >= log_likelihood(self.two_dimensional_fit(s), s) - 1e-9


class TestGevObjective:
    """The GEV search minimizes a summed objective, the negative of the kernel's sum."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 200),
        location=st.floats(-10.0, 10.0),
        log_scale=st.floats(-700.0, 700.0),
        shape=st.just(0.0) | st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=6, location=0.0, log_scale=-748.0, shape=0.5, seed=0)  # exp(748) overflows
    @example(n=6, location=0.0, log_scale=-748.0, shape=0.0, seed=0)
    @example(n=6, location=0.0, log_scale=748.0, shape=-0.5, seed=0)  # exp(-748) underflows
    def test_is_the_negative_kernel_sum(self, n, location, log_scale, shape, seed):
        data = standardize(np.random.default_rng(seed).gumbel(size=n))[3]
        with np.errstate(all="ignore"):  # as in fit_mle
            expected = -float(GEV.log_density(data, location, log_scale, shape).sum())
            (value,) = _gev_objective(data)([[location, log_scale, shape]])
        if math.isfinite(expected):
            assert value == pytest.approx(expected, rel=1e-12)
        else:
            assert value == math.inf

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(20, 150),
        log10_location=st.floats(-1.0, 4.0),
        cv=st.floats(0.1, 0.5),
        shape=st.sampled_from([-0.99, 0.99]) | st.floats(-0.99, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gev_lane_is_its_search_driven_by_nelder_mead(self, n, log10_location, cv, shape, seed):
        # Records like the benchmark's stations, from near the shape floor to near the ceiling.
        location = 10.0**log10_location
        s = GEV(location, cv * location, shape).sample(n, seed)
        starts, lane = [], evtkit.fitting._search

        def recorded(*args):
            starts.append(args)
            return lane(*args)

        with unittest.mock.patch.object(evtkit.fitting, "_search", recorded):
            fit = fit_mle("gev", s)
        data, problem = evtkit.fitting._prepare("gev", s)
        problem = problem[:-1] + (fit.initial_params,)  # the GEV starts from the fitted Gumbel
        objective = _gev_objective(data)
        with np.errstate(all="ignore"):
            best = nelder_mead(lambda theta: objective([theta.tolist()])[0], *starts[-1])  # the GEV's search is last
        assert repr(fit) == repr(evtkit.fitting._finish(problem, best, best.x, s))

    def test_shape_bounds_are_infeasible(self):
        data = standardize(GEV_MM.sample(20, 1).values)[3]
        nll = _gev_objective(data)
        for shape in (-1.0, 1.0, -1.5, 2.0, math.nan):
            assert nll([[0.0, 0.0, shape]]) == [math.inf]


class TestUnitEquivariance:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        log10_factor=st.floats(-9.0, 9.0),
        relative_shift=st.floats(-1e6, 1e6),
    )
    @example(log10_factor=-9.0, relative_shift=-1e6)
    @example(log10_factor=9.0, relative_shift=1e6)
    @example(log10_factor=6.0, relative_shift=0.0)
    @example(log10_factor=305.0, relative_shift=0.0)  # the values' sum passes the float range
    def test_fits_follow_the_units_of_the_data(self, log10_factor, relative_shift):
        a = 10.0**log10_factor
        c = relative_shift * a * FIXTURE_SD
        shifted = {o.family: o.result for o in fit_all(Sample(a * FIXTURE.values + c))}
        scaled = {o.family: o.result for o in fit_all(Sample(a * FIXTURE.values))}
        for family in ("gumbel", "gev"):
            fit, base = shifted[family], FIXTURE_FITS[family]
            assert fit.converged, family
            scale = a * base.scale
            assert abs(fit.params.location - (a * base.location + c)) <= 1e-6 * scale, family
            assert abs(fit.params.scale - scale) <= 1e-6 * scale, family
        assert abs(shifted["gev"].params.shape - FIXTURE_FITS["gev"].shape) <= 1e-6
        for family in ("frechet", "weibull"):
            fit, base = scaled[family], FIXTURE_FITS[family]
            assert fit.converged, family
            assert fit.params.scale == pytest.approx(a * base.scale, rel=1e-6), family
            assert fit.params.shape == pytest.approx(base.shape, rel=1e-6), family

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        n=st.integers(5, 60),
        sign=st.sampled_from([1.0, -1.0]),
        k=st.integers(-1000, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=51, sign=1.0, k=-1000, seed=22)
    @example(n=51, sign=-1.0, k=1000, seed=22)
    # The GEV reaches the location repair, whose likelihood in data units rounded differently at each k.
    @example(n=5, sign=1.0, k=46, seed=5)
    def test_binary_rescaling_moves_no_fitted_bit(self, n, sign, k, seed):
        # Dividing by a power of two is exact, so the search runs on the same bits.
        x = sign * GEV_MM.sample(n, seed).values
        assume(np.all(np.abs(x) >= 2.0**-20) and np.all(np.abs(x) < 2.0**20))  # x * 2**k stays normal
        base, scaled = ({o.family: o.result for o in fit_all(Sample(v))} for v in (x, x * 2.0**k))
        for family in FAMILIES:
            assert (scaled[family] is None) == (base[family] is None), family
            if base[family] is None:  # Frechet and Weibull of negative values
                continue
            for fitted, unscaled in (
                (scaled[family].params, base[family].params),
                (scaled[family].initial_params, base[family].initial_params),
            ):
                assert fitted.location == math.ldexp(unscaled.location, k), family
                assert fitted.scale == math.ldexp(unscaled.scale, k), family
                assert getattr(fitted, "shape", 0.0) == getattr(unscaled, "shape", 0.0), family
            counts = (scaled[family].iterations, scaled[family].n_evaluations, scaled[family].converged)
            assert counts == (base[family].iterations, base[family].n_evaluations, base[family].converged)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fits_of_data_whose_range_passes_the_float_range(self):
        # values - mean overflowed, and the moment start's sd * sqrt(6) alone does here.
        s = Sample(np.array([1e308, -1e308, 5e307]))
        start = initial_params("gumbel", s)
        assert math.isfinite(start.location) and math.isfinite(start.scale)
        for family in ("gumbel", "gev"):
            fit = fit_mle(family, s)
            assert fit.converged, family
            assert math.isfinite(fit.log_likelihood), family
            assert fit.log_likelihood == log_likelihood(fit.params, s), family

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fits_of_data_at_the_float_maximum_converge(self):
        # The search converged at the unit, but the log-likelihood in data units
        # overflowed: both fits reported their start, unconverged, with -inf. The
        # GEV's location repair had stepped the location to inf, and GEV(inf, ...)
        # raised DomainError.
        s = Sample(np.array([1.7e308, 1.7e308, -1.7e308]))
        fits = {outcome.family: outcome for outcome in fit_all(s)}
        for family in ("gumbel", "gev"):
            fit = fit_mle(family, s)
            assert fit.converged, family
            assert math.isfinite(fit.log_likelihood), family
            assert fit.log_likelihood == log_likelihood(fit.params, s), family
            assert fits[family].error is None and fits[family].result == fit, family

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gev_location_repair_stops_at_the_float_range(self):
        # The fitted GEV's lower end rounds onto the five values at -max, and its
        # location is -max already, so the first outward step leaves the float
        # range. Stepping on would raise DomainError from GEV(-inf, ...).
        top = np.finfo(float).max
        s = Sample(-np.array([top] * 5 + [top - 13 * math.ulp(top)]))
        fit = fit_mle("gev", s)
        assert not fit.converged
        assert fit.params == fit.initial_params
        assert fit.log_likelihood == log_likelihood(fit.params, s)
        gev = {outcome.family: outcome for outcome in fit_all(s)}["gev"]
        assert gev.error is None and gev.result == fit

    @pytest.mark.parametrize("family, point", [("gev", [0.0, 800.0, 0.1]), ("weibull", [1e308, 0.0])])
    def test_search_point_beyond_data_units_reports_the_start(self, family, point):
        # The search's value is finite, but mapping its point back overflows: math.exp of the GEV's
        # log scale, or the Weibull's scale exp(-location), which is 0. The point has no record.
        s = Sample(np.array([3.1, 4.7, 2.2, 5.9, 3.8]))
        _, problem = evtkit.fitting._prepare(family, s)
        cls, *units, init = problem
        assert evtkit.fitting._unpack(cls, point, *units) is None
        best = SimplexResult(np.array(point), 1.0, True, 17, 31)
        fit = evtkit.fitting._finish(problem, best, best.x, s)
        assert fit.params == fit.initial_params == init
        assert (fit.converged, fit.iterations, fit.n_evaluations) == (False, 17, 31)
        assert math.isfinite(fit.log_likelihood) and fit.log_likelihood == log_likelihood(init, s)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_moment_start_within_floats_of_the_float_maximum(self, sign):
        # mean - EULER_GAMMA * scale passed -max, and Gumbel(-inf, ...) raised
        # DomainError before any search, so fit_all reported the Gumbel and the
        # GEV as errors.
        top = np.finfo(float).max
        s = Sample(sign * np.array([top] * 11 + [top - 4 * math.ulp(top)]))
        start = initial_params("gumbel", s)
        assert math.isfinite(start.location) and math.isfinite(start.scale)
        outcomes = {outcome.family: outcome for outcome in fit_all(s)}
        for family in ("gumbel", "gev"):
            fit = fit_mle(family, s)
            assert fit.converged or fit.params == fit.initial_params, family
            assert fit.log_likelihood == log_likelihood(fit.params, s), family
            assert outcomes[family].error is None and outcomes[family].result == fit, family

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weibull_start_of_data_near_the_float_maximum(self):
        # The moment start's scale u*exp(-location) passed max, and the start
        # raised DomainError before any search, so fit_all reported the Weibull
        # as an error.
        top = np.finfo(float).max
        s = Sample(np.array([top] * 11 + [top - 4 * math.ulp(top)]))
        assert initial_params("weibull", s).scale == top
        fit = fit_mle("weibull", s)
        assert fit.converged or fit.params == fit.initial_params
        assert fit.log_likelihood == log_likelihood(fit.params, s)
        weibull = {outcome.family: outcome for outcome in fit_all(s)}["weibull"]
        assert weibull.error is None and weibull.result == fit

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "x, expected",
        [
            ([1e-300, 1e300, 1.0], {"frechet": -23.312297747238816, "weibull": -23.312297747238816}),
            ([5e-324, 1.7e308, 1.0], {"frechet": 11.232733918878145, "weibull": 11.261506295257664}),
        ],
    )
    def test_log_fits_of_positive_data_spanning_the_float_range(self, x, expected):
        # At the largest value's unit the smallest value / u was 0, and both fits
        # raised DomainError "supports only positive values". The expected values
        # are those of the logarithms taken in data units.
        s = Sample(np.array(x))
        for family, loglik in expected.items():
            fit = fit_mle(family, s)
            assert fit.converged, family
            assert fit.log_likelihood == log_likelihood(fit.params, s), family
            assert fit.log_likelihood == pytest.approx(loglik, rel=1e-12), family

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(low=st.integers(-1074, 1023), high=st.integers(-1074, 1023), k=st.integers(-20, 20))
    def test_unit_for_logarithms_keeps_every_value_finite_and_nonzero(self, low, high, k):
        low, high = sorted((low, high))
        x = np.array([2.0**low, 1.5 * 2.0**high if high < 1023 else 2.0**high, 2.0**high])
        y = x / binary_unit(x, logarithmic=True)
        assert np.all(np.isfinite(y)) and np.all(y > 0.0)
        if high - low < 2045:
            assert np.all(y >= np.finfo(float).tiny)
        if -1022 <= low + k and high + k <= 1022:  # x * 2**k stays normal
            assert binary_unit(x * 2.0**k, logarithmic=True) == math.ldexp(binary_unit(x, logarithmic=True), k)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(-300, 300))
    @example(k=200)
    @example(k=187)
    def test_fit_at_the_shape_floor_follows_the_units_of_the_data(self, k):
        # The search converges near shape -1. Mapped back to data units, rounding
        # can put the upper end of the support onto the maximum, and the fit was
        # then replaced by its start; the location now steps outward until the
        # likelihood is finite. No drawn k needs the step; k = 187 needs it on
        # numpy's AVX2 and AVX-512 kernels alike.
        s = Sample(FLOOR_SAMPLE * 10.0**k)
        fit = fit_mle("gev", s)
        assert fit.converged
        assert log_likelihood(fit.params, s) == fit.log_likelihood
        expected = FLOOR_FIT.log_likelihood - FLOOR_SAMPLE.size * k * math.log(10.0)
        assert fit.log_likelihood == pytest.approx(expected, rel=1e-6)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(5, 10),
        tail_index=st.floats(0.5, 5.0),
        sign=st.sampled_from([1.0, -1.0]),
        k=st.integers(-200, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_small_gev_fits_converge_at_every_scale(self, n, tail_index, sign, k, seed):
        # On a few heavy-tailed values the shape ran past 1, where the GEV mean
        # is infinite, and on until the iteration budget was spent.
        s = Sample(sign * np.random.default_rng(seed).pareto(tail_index, n) * 10.0**k)
        fit = fit_mle("gev", s)
        assert fit.converged
        assert -1.0 < fit.params.shape < 1.0

    def test_fit_at_the_shape_ceiling_converges(self):
        # The mirror image of FLOOR_SAMPLE ran 17 243 evaluations to shape 5.38, unconverged.
        fit = fit_mle("gev", Sample(-FLOOR_SAMPLE))
        assert fit.converged
        assert 0.99 < fit.params.shape < 1.0


class TestFitAll:
    def test_four_results_fixed_order(self):
        s = GEV_MM.sample(500, 19)
        outcomes = fit_all(s)
        assert tuple(o.family for o in outcomes) == FAMILIES
        assert all(o.ok for o in outcomes)

    def test_refit_in_one_process_is_identical(self):
        # Each search evaluates into a workspace of its own; fits of other
        # data of the same size in between must leave nothing behind.
        s = GEV(92.41, 30.85, -0.2).sample(120, 5)
        first = fit_all(s)
        for seed in range(3):
            fit_all(GEV_MM.sample(120, seed))
        assert repr(fit_all(s)) == repr(first)

    def test_gev_nests_gumbel(self):
        for seed in range(5):
            s = GEV_MM.sample(200, seed)
            outcomes = {o.family: o.result for o in fit_all(s)}
            assert outcomes["gev"].log_likelihood >= outcomes["gumbel"].log_likelihood - 1e-9

    def test_nonpositive_data_fails_only_positive_families(self):
        rng = np.random.default_rng(4)
        s = Sample(np.concatenate([[-5.0], rng.normal(100.0, 20.0, 99)]))
        outcomes = {o.family: o for o in fit_all(s)}
        assert outcomes["gumbel"].ok and outcomes["gev"].ok
        assert not outcomes["frechet"].ok and "positive" in outcomes["frechet"].error
        assert not outcomes["weibull"].ok and "positive" in outcomes["weibull"].error

    def test_gumbel_fit_anchors_gev(self, monkeypatch):
        # Every search is a lane of _search: the Gumbel-type ones together, then the GEV's alone.
        runs = []
        lane = evtkit.fitting._search

        def counted_lane(*args, **kwargs):
            runs.append((yield from lane(*args, **kwargs)))
            return runs[-1]

        monkeypatch.setattr(evtkit.fitting, "_search", counted_lane)
        results = [o.result for o in fit_all(FIXTURE)]
        # one search per family, the GEV's from the fitted Gumbel at shape 0
        assert len(runs) == 4
        assert sum(r.n_evaluations for r in results) == sum(r.n_evaluations for r in runs)
        assert (results[3].iterations, results[3].n_evaluations) == (runs[3].iterations, runs[3].n_evaluations)
        gumbel = results[0].params
        assert results[3].initial_params == GEV(gumbel.location, gumbel.scale, 0.0)
        assert results[3] == fit_mle("gev", FIXTURE)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(10, 200),
        location=st.floats(-500.0, 500.0),
        scale=st.floats(0.1, 100.0),
        shape=st.floats(-0.9, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    # The unbounded fit ran to shape -1.47, where the likelihood is -inf.
    @example(n=15, location=100.0, scale=20.0, shape=-0.6, seed=0)
    # Converged at shape near -1, then -inf once mapped back to data units.
    @example(
        n=62,
        location=354.0139391349414,
        scale=29.210953233708477,
        shape=-0.7875305151456555,
        seed=1056949775,
    )
    def test_gev_is_finite_and_at_least_as_likely_as_gumbel(self, n, location, scale, shape, seed):
        fits = {o.family: o.result for o in fit_all(GEV(location, scale, shape).sample(n, seed))}
        gev, gumbel = fits["gev"].log_likelihood, fits["gumbel"].log_likelihood
        assert math.isfinite(gev)
        assert gev >= gumbel - 1e-9 * max(1.0, abs(gumbel))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 200),
        location=st.floats(-50.0, 300.0),
        scale=st.floats(0.1, 100.0),
        shape=st.floats(-0.5, 0.5),
        decimals=st.sampled_from([None, 0, -2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_outcome_is_the_fit_of_its_family_alone(self, n, location, scale, shape, decimals, seed):
        # The Gumbel-type searches run as lanes of one objective in fit_all, and
        # alone in fit_mle. Rounding makes ties, and at -2 decimals often a
        # sample of one value; a location near 0 puts values at or below 0.
        values = GEV(location, scale, shape).sample(n, seed).values
        s = Sample(values if decimals is None else np.round(values, decimals))
        for outcome in fit_all(s):
            try:
                expected = fit_mle(outcome.family, s)
            except (DomainError, DegenerateSampleError) as exc:
                assert (outcome.result, outcome.error) == (None, str(exc)), outcome.family
            else:
                assert outcome.error is None and repr(outcome.result) == repr(expected), outcome.family

    def test_searches_step_together_as_one_block_of_three_lanes(self, monkeypatch):
        lanes = []
        lockstep = evtkit.fitting._lockstep

        def recorded(func, searches):
            lanes.append(len(searches))
            return lockstep(func, searches)

        monkeypatch.setattr(evtkit.fitting, "_lockstep", recorded)
        # At any length the three searches are lanes of one block, each the fit of its family alone;
        # the GEV's search, from the fitted Gumbel, is one lane after them.
        for n in (51, 20_000):
            s = GEV_MM.sample(n, 7)
            lanes.clear()
            outcomes = fit_all(s)
            assert lanes == [3, 1], n
            for outcome in outcomes:
                assert repr(outcome.result) == repr(fit_mle(outcome.family, s)), (n, outcome.family)

    @pytest.mark.parametrize(
        "values, failing",
        [
            pytest.param(np.full(5, 3.0), FAMILIES, id="5-3.0"),
            pytest.param(np.full(3, 0.1), FAMILIES, id="3-0.1"),
            pytest.param(np.full(7, 0.7668222740913637), FAMILIES, id="7-0.7668222740913637"),
            pytest.param(np.array([93.61, 32.02]), FAMILIES, id="n-2"),
            pytest.param(np.array([-5.0, 0.0, 93.61, 32.02, 120.5]), ("frechet", "weibull"), id="non-positive"),
        ],
    )
    def test_degenerate_sample_captured_per_family(self, values, failing):
        # On (0.1,) * 3 the rounded mean left the values, and the Gumbel and GEV were "fitted", unconverged.
        # fit_mle raises exactly the error fit_all records, and the GEV the Gumbel's.
        s = Sample(values)
        outcomes = {o.family: o for o in fit_all(s)}
        assert tuple(family for family, o in outcomes.items() if not o.ok) == failing
        raised = {}
        for family, outcome in outcomes.items():
            if outcome.ok:
                assert repr(fit_mle(family, s)) == repr(outcome.result), family
                continue
            assert outcome.error and outcome.result is None
            with pytest.raises((DomainError, DegenerateSampleError)) as info:
                fit_mle(family, s)
            assert str(info.value) == outcome.error, family
            raised[family] = type(info.value), str(info.value)
        if "gev" in raised:
            assert raised["gev"] == raised["gumbel"]
        with pytest.raises(DomainError, match="unknown family 'gamma'"):
            fit_mle("gamma", s)


ORACLE_CASES = list(itertools.product((-0.3, 0.0, 0.064, 0.2, 0.4), ((30, 1e-3), (51, 1.0), (120, 1e4))))


class TestScipyOracle:
    """Each fit reaches at least the log-likelihood of scipy's own maximum-likelihood fit.

    scipy fits ``x / factor`` and its location and scale are scaled back: on the raw
    data at 1e4 ``genextreme.fit`` ends off the support. scipy's GEV shape is ``-shape``.
    Both sides' log-likelihoods come from :func:`log_likelihood` on the same sample.
    """

    @pytest.mark.parametrize("seed", range(len(ORACLE_CASES)))
    def test_no_family_ends_below_scipy(self, seed):
        shape, (n, factor) = ORACLE_CASES[seed]
        sample = Sample(GEV(93.05, 29.01, shape).sample(n, seed).values * factor)
        x = sample.values / factor
        loc, scale = spstats.gumbel_r.fit(x)
        frechet_shape, _, frechet_scale = spstats.invweibull.fit(x, floc=0)
        weibull_shape, _, weibull_scale = spstats.weibull_min.fit(x, floc=0)
        c, gev_loc, gev_scale = spstats.genextreme.fit(x)
        scipy_fits = {
            "gumbel": Gumbel(loc * factor, scale * factor),
            "frechet": Frechet(frechet_shape, frechet_scale * factor),
            "weibull": Weibull(weibull_shape, weibull_scale * factor),
            "gev": GEV(gev_loc * factor, gev_scale * factor, -c),
        }
        for outcome in fit_all(sample):
            ours = log_likelihood(outcome.result.params, sample)
            theirs = log_likelihood(scipy_fits[outcome.family], sample)
            assert ours >= theirs - 1e-9 * (1.0 + abs(ours)), outcome.family


# numpy's AVX-512 kernels (the X86_V4 dispatch target) of exp, log and log1p give
# other last bits than its AVX2 ones, and the GEV search takes another path with them.
X86_V4 = "X86_V4" in __cpu_dispatch__ and bool(__cpu_features__.get("X86_V4"))


class TestRepositoryFixturePinned:
    """``fit_all`` on data/synthetic_annual_maxima.csv, to the last bit.

    Any change in the order of the simplex arithmetic moves these values. The
    Gumbel and GEV fits are pinned once for each numpy dispatch level: with
    and without X86_V4.
    """

    EXPECTED = {
        "gumbel": (
            ("Gumbel(location=94.09438228403403, scale=29.7360912692945)", 25, 53)
            if X86_V4
            else ("Gumbel(location=94.09438235622288, scale=29.73609144653542)", 25, 53)
        ),
        "frechet": ("Frechet(shape=3.231717183474522, scale=89.41286591795098)", 25, 53),
        "weibull": ("Weibull(shape=2.8019195785212494, scale=125.21070333109328)", 26, 55),
        "gev": (
            ("GEV(location=93.0492752302404, scale=29.011561048464777, shape=0.06429703022971645)", 85, 169)
            if X86_V4
            else ("GEV(location=93.04927509708212, scale=29.01156086857802, shape=0.06429702081718201)", 83, 166)
        ),
    }

    # Log-likelihood of the fit, and repr of initial_params.
    EXPECTED_LIKELIHOOD_AND_START = {
        "gumbel": (-254.23853185528176, "Gumbel(location=93.28026548506195, scale=31.9446086842236)"),
        "frechet": (
            -255.84345502167915,
            "Frechet(shape=3.7809613524033976, scale=90.4811014620348)",
        ),
        "weibull": (-260.608547194308, "Weibull(shape=3.7809613524033976, scale=122.78912660834098)"),
        "gev": (
            -254.03549969557497,
            "GEV(location=93.28026548506195, scale=31.9446086842236, shape=0.0)",
        ),
    }

    @pytest.fixture(scope="class")
    def sample(self):
        return load_csv(Path(__file__).resolve().parents[1] / "data" / "synthetic_annual_maxima.csv").sample

    def test_fit_all_is_pinned(self, sample):
        fits = {o.family: o.result for o in fit_all(sample)}
        got = {f: (repr(r.params), r.iterations, r.n_evaluations) for f, r in fits.items()}
        assert got == self.EXPECTED

    def test_likelihood_and_start_are_pinned(self, sample):
        fits = {o.family: o.result for o in fit_all(sample)}
        got = {f: (r.log_likelihood, repr(initial_params(f, sample))) for f, r in fits.items()}
        assert got == self.EXPECTED_LIKELIHOOD_AND_START


class TestSimulationRecoveryProperty:
    def test_mean_shape_over_seeds(self):
        shapes = []
        for seed in range(20):
            s = GEV_MM.sample(2000, seed)
            shapes.append(fit_mle("gev", s).params.shape)
        assert abs(float(np.mean(shapes)) - 0.06) < 0.02


@st.composite
def _tied_scaled_values(draw):
    """n = 2-200 values with ties and negatives, from whole numbers or floats, times 2**k or 10**k."""
    n = draw(st.integers(2, 200))
    element = st.integers(-40, 40) | st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(element, min_size=n, max_size=n)), dtype=float)
    factor = draw(st.integers(-60, 60).map(lambda k: 2.0**k) | st.integers(-30, 30).map(lambda k: 10.0**k))
    return values * factor


class TestOneStandardizationPerSample:
    """A sample standardizes its sorted values once; describe, the Gumbel fit and the GEV fit share it."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(values=_tied_scaled_values())
    @example(values=np.array([3.0, 3.0]))
    @example(values=np.array([-7.0, 1e-310, 2.5, 2.5, 2.5]))
    def test_kept_standardization_is_standardize_and_call_order_moves_no_bit(self, values):
        def exact(standardization):
            unit, mean, sd, z = standardization
            return repr((unit, mean, sd)), z.tobytes()

        s = Sample(values)
        expected = exact(standardize(s.sorted_values()))
        assert exact(s.standardized()) == expected  # the first call
        assert exact(s.standardized()) == exact(s.standardized()) == expected  # rebuilt from the kept numbers

        sd = float(np.std(values))
        dist = Gumbel(float(np.mean(values)), sd if 0.0 < sd < math.inf else 1.0)
        calls = {
            "describe": evtkit.describe,
            "fit_all": fit_all,
            "log_likelihood": functools.partial(log_likelihood, dist),
        }
        results = []
        for order in itertools.permutations(calls):
            fresh = Sample(values)
            results.append({name: repr(calls[name](fresh)) for name in order})
        assert all(result == results[0] for result in results[1:])

    def test_run_pipeline_standardizes_three_times(self):
        # The sample's own standardization (describe, then the Gumbel and GEV fits), the
        # Frechet's and the Weibull's. Every evtkit module that binds standardize is counted.
        dataset = load_csv(Path(__file__).resolve().parents[1] / "data" / "synthetic_annual_maxima.csv")
        counted = unittest.mock.MagicMock(wraps=standardize)
        with contextlib.ExitStack() as stack:
            for name, module in list(sys.modules.items()):
                if name.startswith("evtkit") and getattr(module, "standardize", None) is standardize:
                    stack.enter_context(unittest.mock.patch.object(module, "standardize", counted))
            evtkit.run_pipeline(dataset)
        assert counted.call_count == 3

    def test_fits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a dot product of more than 10 000 values over its threads, and the
        # sd's last bit, with every fit after it, followed the number it started.
        child = "\n".join([
            "import hashlib",
            "from evtkit import GEV, Sample, fit_all",
            "from evtkit.sample import standardize",
            "values = GEV(100.0, 30.0, 0.1).sample(20_000, 5).values",
            "unit, mean, sd, z = standardize(values)",
            "print(repr((unit, mean, sd)), hashlib.sha256(z.tobytes()).hexdigest())",
            "print(repr(fit_all(Sample(values))))",
        ])
        runs = [run_python("-c", child, OPENBLAS_NUM_THREADS=str(threads)) for threads in (1, 2)]
        assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
        assert runs[0].stdout == runs[1].stdout

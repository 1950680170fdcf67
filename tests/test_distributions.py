"""Closed-form values, identities, and distributional properties."""

import dataclasses
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from evtkit import (
    DEFAULT_RETURN_PERIODS,
    Frechet,
    GEV,
    Gumbel,
    Sample,
    Weibull,
    make_params,
    params_from_sequence,
    params_to_dict,
    return_level,
)
from evtkit.errors import DomainError

from conftest import (
    ALL_MM,
    FRECHET_MM,
    GEV_MM,
    GUMBEL_MM,
    WEIBULL_MM,
    bisect_quantile,
    empirical_cdf_sup_distance,
)


class TestSupport:
    def test_gumbel_whole_line(self):
        assert GUMBEL_MM.support() == (-np.inf, np.inf)

    def test_gev_positive_shape_lower_bound(self):
        lo, hi = GEV_MM.support()
        assert lo == pytest.approx(92.41 - 30.85 / 0.06, abs=1e-9)
        assert lo == pytest.approx(-421.756666666, abs=1e-6)
        assert hi == np.inf

    def test_gev_zero_shape_is_whole_line(self):
        assert GEV(92.41, 30.85, 0.0).support() == (-np.inf, np.inf)

    def test_gev_negative_shape_upper_bound(self):
        lo, hi = GEV(10.0, 2.0, -0.25).support()
        assert lo == -np.inf
        assert hi == pytest.approx(10.0 + 2.0 / 0.25)

    def test_frechet_and_weibull_left_bounded(self):
        assert FRECHET_MM.support() == (0.0, np.inf)
        assert WEIBULL_MM.support() == (0.0, np.inf)

    @pytest.mark.parametrize(
        "dist",
        [
            *(pytest.param(dist, id=dist.family) for dist in ALL_MM),
            pytest.param(GEV(10.0, 2.0, -0.25), id="gev-bounded"),
        ],
    )
    def test_cdf_saturates_outside_support(self, dist):
        lo, hi = dist.support()
        assert dist.cdf(-np.inf) == 0.0
        assert dist.cdf(np.inf) == 1.0
        if np.isfinite(lo):
            for x in (lo, lo - 1.0):
                assert dist.cdf(x) == 0.0
                assert dist.log_pdf(x) == -np.inf
                assert dist.pdf(x) == 0.0
        if np.isfinite(hi):
            assert dist.cdf(hi) == 1.0
            assert dist.cdf(hi + 1.0) == 1.0
        # The shape-0 kernel gave nan (inf - inf) at -inf, and so did Weibull at +inf.
        for x in (-np.inf, np.inf, np.nan):
            assert dist.log_pdf(x) == -np.inf
            assert dist.pdf(x) == 0.0


class TestCdf:
    def test_gev_at_location(self):
        assert GEV_MM.cdf(92.41) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_gumbel_at_location(self):
        assert GUMBEL_MM.cdf(93.61) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_gev_high_quantile_point(self):
        # inverse of the 100-year return-level oracle
        assert GEV_MM.cdf(255.84) == pytest.approx(0.99, abs=1e-4)

    def test_monotone_on_grid(self, reference_dist):
        lo, hi = reference_dist.support()
        lo = lo if np.isfinite(lo) else reference_dist.quantile(1e-9) - 10.0
        hi = hi if np.isfinite(hi) else reference_dist.quantile(1.0 - 1e-9) + 10.0
        grid = np.linspace(lo, hi, 10_000)
        f = reference_dist.cdf(grid)
        assert np.all(np.diff(f) >= 0.0)
        assert np.all((f >= 0.0) & (f <= 1.0))

    def test_vector_and_scalar_agree(self, reference_dist):
        xs = [50.0, 112.09, 264.4]
        vec = reference_dist.cdf(np.array(xs))
        for x, v in zip(xs, vec):
            assert reference_dist.cdf(x) == v

    def test_frechet_cdf_at_smallest_subnormal_is_silent_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert FRECHET_MM.cdf(5e-324) == 0.0


class TestPdf:
    def test_gumbel_peak_value(self):
        assert GUMBEL_MM.pdf(93.61) == pytest.approx(math.exp(-1) / 32.02, rel=1e-12)

    def test_weibull_zero_at_origin(self):
        assert WEIBULL_MM.pdf(0.0) == 0.0

    def test_outside_support_is_zero(self):
        assert GEV_MM.pdf(-500.0) == 0.0
        assert FRECHET_MM.pdf(-1.0) == 0.0

    def test_gev_tiny_shape_matches_gumbel(self):
        gev = GEV(93.61, 32.02, 1e-13)
        x = np.linspace(20.0, 260.0, 200)
        assert np.max(np.abs(gev.pdf(x) - GUMBEL_MM.pdf(x))) < 1e-8

    def test_integrates_to_one(self, reference_dist):
        lo = reference_dist.quantile(1e-12)
        hi = reference_dist.quantile(1.0 - 1e-12)
        total, err = integrate.quad(reference_dist.pdf, lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_matches_cdf_derivative(self, reference_dist):
        # central differences at 100 interior points
        p = np.linspace(0.005, 0.995, 100)
        x = reference_dist.quantile(p)
        scale = reference_dist.scale
        h = 1e-5 * scale
        approx = (reference_dist.cdf(x + h) - reference_dist.cdf(x - h)) / (2 * h)
        assert np.max(np.abs(approx - reference_dist.pdf(x))) < 1e-5


class TestLogPdf:
    def test_gumbel_at_location(self):
        assert GUMBEL_MM.log_pdf(93.61) == pytest.approx(-(1 + math.log(32.02)), abs=1e-12)
        assert GUMBEL_MM.log_pdf(93.61) == pytest.approx(-4.4664, abs=5e-5)

    def test_below_gev_support_is_minus_inf(self):
        assert GEV_MM.log_pdf(-500.0) == -np.inf

    def test_exp_log_pdf_equals_pdf(self, reference_dist):
        p = np.linspace(0.001, 0.999, 1000)
        x = reference_dist.quantile(p)
        lp = reference_dist.log_pdf(x)
        pdf = reference_dist.pdf(x)
        assert np.max(np.abs(np.exp(lp) - pdf) / pdf) < 1e-12

    def test_no_underflow_deep_in_tail(self):
        # far upper tail: pdf underflows but log pdf stays finite
        x = 1e6
        assert GUMBEL_MM.pdf(x) == 0.0
        lp = GUMBEL_MM.log_pdf(x)
        assert np.isfinite(lp) and lp < -1e4


class TestQuantile:
    def test_gumbel_at_exp_minus_one(self):
        assert GUMBEL_MM.quantile(math.exp(-1)) == pytest.approx(93.61, abs=1e-12)

    def test_gev_99th_percentile(self):
        q = GEV_MM.quantile(0.99)
        assert q == pytest.approx(255.84, abs=0.01)
        assert q == pytest.approx(255.842843686, abs=1e-6)
        assert q == pytest.approx(bisect_quantile(GEV_MM, 0.99), rel=1e-9)

    def test_round_trip_through_cdf(self, reference_dist):
        for x in (50.0, 112.09, 264.4):
            p = reference_dist.cdf(x)
            if 0.0 < p < 1.0:
                assert reference_dist.quantile(p) == pytest.approx(x, abs=1e-9)

    def test_inverse_pair_identity_on_grid(self, reference_dist):
        p = np.linspace(0.001, 0.999, 999)
        back = reference_dist.cdf(reference_dist.quantile(p))
        assert np.max(np.abs(back - p)) < 1e-10

    def test_strictly_increasing(self, reference_dist):
        p = np.linspace(0.001, 0.999, 999)
        q = reference_dist.quantile(p)
        assert np.all(np.diff(q) > 0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, np.nan])
    def test_rejects_out_of_range(self, reference_dist, p):
        with pytest.raises(DomainError):
            reference_dist.quantile(p)


class TestNegativeShapeGev:
    """shape < 0 gives the bounded-tail (reversed Weibull) regime."""

    dist = GEV(location=100.0, scale=15.0, shape=-0.25)

    def test_upper_bound_saturation(self):
        lo, hi = self.dist.support()
        assert hi == pytest.approx(160.0)
        assert self.dist.cdf(hi) == 1.0
        assert self.dist.cdf(hi + 1.0) == 1.0
        assert self.dist.pdf(hi + 1.0) == 0.0

    def test_quantile_round_trip(self):
        p = np.linspace(0.001, 0.999, 999)
        assert np.max(np.abs(self.dist.cdf(self.dist.quantile(p)) - p)) < 1e-10

    def test_quantile_approaches_upper_bound(self):
        # gap to the bound shrinks like (-log p)^(-shape) = (1e-12)^0.25
        q = self.dist.quantile(1 - 1e-12)
        assert q < 160.0
        assert q == pytest.approx(160.0 - 60.0 * 1e-3, abs=1e-6)

    def test_density_integrates_to_one(self):
        lo = self.dist.quantile(1e-12)
        hi = self.dist.quantile(1 - 1e-12)
        total, _ = integrate.quad(self.dist.pdf, lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_sampling_respects_bound(self):
        values = self.dist.sample(5000, 77).values
        assert np.all(values < 160.0)


class TestGumbelLimit:
    """GEV with |shape| at 1e-12 agrees with the Gumbel formulas."""

    @pytest.mark.parametrize("shape", [1e-12, -1e-12])
    def test_pdf_cdf_quantile_agree(self, shape):
        gev = GEV(93.61, 32.02, shape)
        x = np.linspace(-50.0, 350.0, 100)
        assert np.max(np.abs(gev.pdf(x) - GUMBEL_MM.pdf(x))) < 1e-8
        assert np.max(np.abs(gev.cdf(x) - GUMBEL_MM.cdf(x))) < 1e-8
        p = np.linspace(0.01, 0.99, 100)
        assert np.max(np.abs(gev.quantile(p) - GUMBEL_MM.quantile(p))) < 1e-8


class TestGumbelCase:
    """Shape 0 is the Gumbel case of the GEV formulas, to the last bit."""

    def test_log_pdf_at_a_subnormal_shape_is_the_gumbel_one(self):
        # shape * z rounded onto the subnormal grid, and log1p(shape*z)/shape
        # gave [-1.0, -2.1353, -1.0]. The cdf and the quantile divided
        # log1p(shape*z) and expm1(shape*y) by the shape the same way: at
        # 5e-324, cdf(0.7) was 0.6922, quantile(0.5) was 0.0 and the 100-year
        # level 5.0.
        x, p = [0.3, 1.7, -0.4], [0.5, 0.01, 0.99]
        gumbel = Gumbel(0.0, 1.0)
        for shape in (5e-324, -5e-324, 1e-320, 2.0**-1000):
            gev = GEV(0.0, 1.0, shape)
            assert gev.log_pdf(x) == pytest.approx(gumbel.log_pdf(x), rel=1e-12)
            assert gev.cdf(x) == pytest.approx(gumbel.cdf(x), rel=1e-12)
            assert gev.quantile(p) == pytest.approx(gumbel.quantile(p), rel=1e-12)
            assert return_level(gev, 100.0) == pytest.approx(return_level(gumbel, 100.0), rel=1e-12)

    # The textbook Gumbel expressions, against the GEV forms at shape 0 and at the smallest shapes.
    def test_log_density_is_gumbel_bit_for_bit(self):
        x = np.concatenate([np.linspace(-20000.0, 20000.0, 4001), [93.61, 1e300, -1e300]])
        location, log_scale = 93.61, math.log(32.02)
        with np.errstate(over="ignore"):
            z = (x - location) / np.exp(log_scale)
            expected = (-log_scale - z) - np.exp(-z)
            for shape in (0.0, 5e-324, -5e-324):
                assert np.array_equal(GEV.log_density(x, location, log_scale, shape), expected)

    def test_cdf_and_quantile_are_gumbel_bit_for_bit(self):
        location, scale = 93.61, 32.02
        x = np.linspace(-20000.0, 20000.0, 4001)
        p = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 4001), [1e-300, 1.0 - 1e-16]])
        with np.errstate(over="ignore"):
            cdf = np.exp(-np.exp(-((x - location) / scale)))
        quantile = location + scale * -np.log(-np.log(p))
        for shape in (0.0, 5e-324, -5e-324):
            gev = GEV(location, scale, shape)
            assert np.array_equal(gev.cdf(x), cdf)
            assert np.array_equal(gev.quantile(p), quantile)


_MIN = sys.float_info.min
_FORM_EDGES = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
_FORM_EDGES += [-1.0, math.nextafter(-1.0, -2.0), math.nextafter(-1.0, 0.0)]
_FORM_EDGES += [sign * m for sign in (1.0, -1.0) for m in (_MIN, math.nextafter(_MIN, 0), math.nextafter(_MIN, 1))]


class TestFormsKeepNormality:
    """The shape-0 limit is masked by the form of u = shape*z, which is a normal float where u is.

    log1p and expm1 keep 0, subnormals and nan, and map a normal float to a normal float or +-inf;
    log1p of u < -1 is nan. Each array is 64 floats long, so that numpy's vector loops run on it.
    """

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(), min_size=1, max_size=64))
    @example(values=_FORM_EDGES)
    def test_log1p_and_expm1_are_normal_where_their_argument_is(self, values):
        u = np.resize(np.array(values), 64)
        normal = np.abs(u) >= _MIN
        with np.errstate(all="ignore"):
            for form in (np.log1p(np.maximum(u, -1.0)), np.expm1(u)):
                assert np.array_equal(np.abs(form) >= _MIN, normal)
            log1p = np.log1p(u)
        above = u >= -1.0
        assert np.array_equal(np.abs(log1p[above]) >= _MIN, normal[above])
        assert np.isnan(log1p[u < -1.0]).all()


def _reference_log_density(x, location, log_scale, shape=0.0):
    """The likelihood kernel as numpy expressions that each allocate their result."""
    w = (x - location) / np.exp(log_scale)
    if not shape:
        return -log_scale - w - np.exp(-w)
    lt = np.log1p(shape * w)
    # Below |shape| 2**-970, w is its Gumbel limit z wherever shape * z is not a normal float.
    w = np.where((abs(shape) < 2.0**-970) & (np.abs(shape * w) < np.finfo(float).tiny), w, lt / shape)
    return np.where(lt > -np.inf, -log_scale - (lt + w) - np.exp(-w), -np.inf)


class TestLogDensityWorkspace:
    """The kernel, computed in place in two arrays of its own, gives the bits of the allocating reference."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        shape=st.one_of(st.just(0.0), st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
        location=st.floats(-10.0, 10.0),
        log_scale=st.floats(-5.0, 5.0),
        values=st.lists(
            st.one_of(st.floats(-1e3, 1e3), st.sampled_from([np.inf, -np.inf, np.nan])),
            min_size=1,
            max_size=40,
        ),
    )
    @example(shape=0.5, location=0.0, log_scale=0.0, values=[-2.0, -3.0, 0.0])
    @example(shape=-0.5, location=0.0, log_scale=0.0, values=[2.0, 3.0, 0.0])
    @example(shape=1e-300, location=0.0, log_scale=0.0, values=[-700.0, 0.0, 700.0])
    @example(shape=5e-324, location=0.0, log_scale=0.0, values=[0.3, 1.7, -0.4, 1e300])
    def test_in_place_equals_allocating_call(self, shape, location, log_scale, values):
        x = np.array(values)
        if shape:  # the end of the support, where lt is -inf, and points beyond it
            edge = location - math.exp(log_scale) / shape
            x = np.append(x, [edge, edge - math.copysign(1.0, shape), np.nextafter(edge, -shape * np.inf)])
        with np.errstate(all="ignore"):
            expected = np.fmax(_reference_log_density(x, location, log_scale, shape), -np.inf)
            result = GEV.log_density(x, location, log_scale, shape)
        assert not np.isnan(result).any()  # -inf off the support, at +-inf and at nan, shape 0 included
        assert result.tobytes() == expected.tobytes()
        with np.errstate(all="ignore"):
            scalar = GEV.log_density(values[0], location, log_scale, shape)
        assert scalar.tobytes() == expected[:1].tobytes()


_SHAPES = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, log10: sign * 10.0**log10,
        st.sampled_from([1.0, -1.0]),
        st.floats(-300.0, math.log10(0.5)),
    ),
)


class TestAgainstMpmath:
    """GEV(0, 1, shape) against 50-digit references for shapes at and near 0."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(shape=_SHAPES, p=st.floats(1e-6, 1.0 - 1e-6))
    @example(shape=0.99e-8, p=0.99)
    @example(shape=-0.99e-8, p=0.01)
    @example(shape=1e-12, p=0.999)
    @example(shape=1e-300, p=0.5)
    @example(shape=0.5, p=1.0 - 1e-6)
    @example(shape=-0.5, p=1.0 - 1e-6)
    def test_quantile_cdf_and_log_pdf(self, shape, p):
        dist = GEV(0.0, 1.0, shape)
        with mpmath.workdps(50):
            level = -mpmath.log(-mpmath.log(p))
            expected_q = level if shape == 0.0 else mpmath.expm1(shape * level) / shape
            q = dist.quantile(p)
            # The quantile is 0 at p = 1/e, where the conditioning of
            # -log(-log p) alone rules out a purely relative bound.
            assert abs(q - expected_q) <= 1e-14 * max(abs(expected_q), 1.0)
            z = mpmath.mpf(q)
            assert 1.0 + shape * z > 0.0
            lt = mpmath.log1p(shape * z)
            w = lt / shape if shape else z
            assert abs(dist.cdf(q) - mpmath.exp(-mpmath.exp(-w))) <= 1e-15
            expected_log_pdf = -lt - w - mpmath.exp(-w)
            assert abs(dist.log_pdf(q) - expected_log_pdf) <= 1e-13 * abs(expected_log_pdf)


class TestFrechetWeibullAgainstMpmath:
    """Frechet and Weibull log densities, from the Gumbel kernel at +-log x, against 50 digits."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(["frechet", "weibull"]),
        log10_shape=st.floats(-1.0, 1.5),
        log10_scale=st.floats(-6.0, 6.0),
        p=st.floats(1e-6, 1.0 - 1e-6),
    )
    @example(family="frechet", log10_shape=1.5, log10_scale=-6.0, p=1e-6)
    @example(family="weibull", log10_shape=1.5, log10_scale=6.0, p=1.0 - 1e-6)
    @example(family="weibull", log10_shape=-1.0, log10_scale=0.0, p=1e-6)
    def test_log_pdf(self, family, log10_shape, log10_scale, p):
        shape, scale = 10.0**log10_shape, 10.0**log10_scale
        dist = make_params(family, shape=shape, scale=scale)
        x = dist.quantile(p)
        with mpmath.workdps(50):
            k, lz = mpmath.mpf(shape), mpmath.log(mpmath.mpf(x) / scale)
            if family == "frechet":
                expected = mpmath.log(k / scale) - (1 + k) * lz - mpmath.exp(-k * lz)
            else:
                expected = mpmath.log(k / scale) + (k - 1) * lz - mpmath.exp(k * lz)
            assert abs(dist.log_pdf(x) - expected) <= 1e-13 * max(abs(expected), 1.0)


class TestSampling:
    def test_same_seed_same_values(self):
        a = GEV_MM.sample(5, 42)
        b = GEV_MM.sample(5, 42)
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        assert not np.array_equal(GEV_MM.sample(5, 1).values, GEV_MM.sample(5, 2).values)

    def test_values_inside_support(self, reference_dist):
        lo, hi = reference_dist.support()
        values = reference_dist.sample(1000, 3).values
        assert np.all(values > lo) and np.all(values < hi)

    def test_zero_size_rejected(self):
        with pytest.raises(DomainError, match="^sample size must be at least 1$"):
            GEV_MM.sample(0, 1)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (3.7, 1, r"^sample size 3\.7 is not a whole number$"),
            (None, 1, "^sample size None is not a whole number$"),
            (3, 1.5, r"^seed 1\.5 is not a whole number$"),
        ],
    )
    def test_fractional_size_or_seed_rejected(self, n, seed, message):
        with pytest.raises(DomainError, match=message):
            GEV_MM.sample(n, seed)

    def test_whole_float_size_and_seed_accepted(self):
        assert np.array_equal(GEV_MM.sample(3.0, 2.0).values, GEV_MM.sample(3, 2).values)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="^seed must be at least 0, got -1$"):
            GEV_MM.sample(5, -1)

    def test_draws_beyond_the_float_range_name_the_record_and_seed(self):
        expected = r"^Frechet\(shape=0\.002, scale=1\.0\) with seed 1 draws a value beyond the float range$"
        with pytest.raises(DomainError, match=expected):
            Frechet(0.002, 1.0).sample(5, 1)

    def test_empirical_cdf_close(self, reference_dist):
        s = reference_dist.sample(100_000, 12345)
        assert empirical_cdf_sup_distance(s.values, reference_dist) < 0.01


class TestSampleContainer:
    def test_requires_values(self):
        with pytest.raises(DomainError):
            Sample(np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Sample(np.array([1.0, np.inf]))
        with pytest.raises(DomainError):
            Sample(np.array([np.nan]))

    def test_sorted_view_is_ascending_and_stable(self):
        s = Sample(np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(s.sorted_values(), [1.0, 2.0, 3.0])
        assert np.array_equal(s.values, [3.0, 1.0, 2.0])  # original order kept
        assert s.n == len(s) == 3

    def test_sorted_view_is_computed_once_and_read_only(self):
        s = Sample(np.array([3.0, 1.0, 2.0]))
        ordered = s.sorted_values()
        assert s.sorted_values() is ordered
        with pytest.raises(ValueError):
            ordered[0] = 0.0


# A valid record per family, and the fields each requires to be positive.
VALID_RECORDS = {
    Gumbel: (dict(location=0.0, scale=1.0), ("scale",)),
    Frechet: (dict(shape=2.0, scale=1.0), ("shape", "scale")),
    Weibull: (dict(shape=2.0, scale=1.0), ("shape", "scale")),
    GEV: (dict(location=0.0, scale=1.0, shape=0.1), ("scale",)),
}
RECORD_FIELDS = [(cls, f.name) for cls in VALID_RECORDS for f in dataclasses.fields(cls)]


@pytest.mark.parametrize(
    "cls, field", RECORD_FIELDS, ids=[f"{cls.family}-{field}" for cls, field in RECORD_FIELDS]
)
class TestRecordValidation:
    def build(self, cls, field, value):
        kwargs, _ = VALID_RECORDS[cls]
        return cls(**{**kwargs, field: value})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_naming_the_field(self, cls, field, bad):
        with pytest.raises(DomainError, match=rf"^{field} must be"):
            self.build(cls, field, bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_positive_fields_reject_zero_and_negative(self, cls, field, bad):
        if field in VALID_RECORDS[cls][1]:
            with pytest.raises(DomainError, match=rf"^{field} must be a positive finite number"):
                self.build(cls, field, bad)
        else:  # every location, and the GEV shape
            assert getattr(self.build(cls, field, bad), field) == bad

    @pytest.mark.parametrize("value", [3, np.float32(3.0)])
    def test_stores_python_floats(self, cls, field, value):
        record = self.build(cls, field, value)
        assert type(getattr(record, field)) is float
        assert getattr(record, field) == 3.0


class TestParamRecords:
    def test_scale_must_be_positive(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(DomainError):
                Gumbel(0.0, bad)
        with pytest.raises(DomainError):
            Weibull(-2.0, 1.0)
        with pytest.raises(DomainError):
            Frechet(0.0, 1.0)

    def test_dict_round_trip(self, reference_dist):
        assert make_params(**params_to_dict(reference_dist)) == reference_dist

    def test_make_params_and_sequences(self):
        assert make_params("gumbel", location=1.0, scale=2.0) == Gumbel(1.0, 2.0)
        assert params_from_sequence("gev", [92.41, 30.85, 0.06]) == GEV_MM
        assert params_from_sequence("frechet", [3.37, 88.16]) == FRECHET_MM
        with pytest.raises(DomainError, match=r"^frechet takes 2 parameters \(shape, scale\), got 3$"):
            params_from_sequence("frechet", [3.37, 88.16, 5.0])
        with pytest.raises(DomainError):
            params_from_sequence("gumbel", [1.0])
        with pytest.raises(DomainError):
            params_from_sequence("gev", [1.0, 2.0])
        with pytest.raises(DomainError):
            make_params("normal", location=0.0, scale=1.0)
        with pytest.raises(DomainError, match="missing the 'family' tag"):
            make_params(location=0.0, scale=1.0)

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param({"family": "gumbel", "scale": 2.0}, r"\(location, scale\), got scale$", id="missing"),
            pytest.param(
                {"family": "gumbel", "location": 1.0, "scale": 2.0, "shape": 0.0},
                r"\(location, scale\), got location, scale, shape$",
                id="unknown",
            ),
            pytest.param(  # a Frechet as reports wrote it before the Frechet lost its location
                {"family": "frechet", "shape": 3.37, "scale": 88.16, "location": 0.0},
                r"\(shape, scale\), got shape, scale, location$",
                id="legacy-frechet",
            ),
        ],
    )
    def test_malformed_records_are_domain_errors_naming_the_fields(self, data, message):
        message = rf"^{data['family']} takes \d parameters {message}"
        with pytest.raises(DomainError, match=message):
            make_params(**data)


# Each family's record: its fields in order and its repr.
RECORD_LAYOUTS = [
    (Gumbel(1.0, 2.0), ("location", "scale"), "Gumbel(location=1.0, scale=2.0)"),
    (Frechet(3.0, 2.0), ("shape", "scale"), "Frechet(shape=3.0, scale=2.0)"),
    (Weibull(3.0, 2.0), ("shape", "scale"), "Weibull(shape=3.0, scale=2.0)"),
    (GEV(1.0, 2.0, 0.5), ("location", "scale", "shape"), "GEV(location=1.0, scale=2.0, shape=0.5)"),
]


@pytest.mark.parametrize("record, names, text", RECORD_LAYOUTS, ids=[r.family for r, _, _ in RECORD_LAYOUTS])
class TestRecordLayout:
    """The fields each record shape declares once, as every family inherits them."""

    def test_fields_repr_and_dict_keys(self, record, names, text):
        assert tuple(field.name for field in dataclasses.fields(record)) == names
        assert repr(record) == text
        assert tuple(params_to_dict(record)) == ("family", *names)

    def test_frozen_against_fields_and_new_attributes(self, record, names, text):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, names[0], 1.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1.5

    def test_equal_records_hash_equal(self, record, names, text):
        twin = type(record)(*(getattr(record, name) for name in names))
        assert twin is not record
        assert twin == record and hash(twin) == hash(record)


def test_gumbel_is_not_equal_to_the_gev_at_shape_zero():
    assert Gumbel(0.0, 1.0) != GEV(0.0, 1.0, 0.0)


class TestLogGumbelIdentities:
    """Frechet and Weibull are the Gumbel of log x and of -log x (Coles 2001, section 3.1), for every record.

    The Frechet forms agree to 1e-11 relative. The Weibull forms are checked to 1e-8: the test's own
    1 - p and 1 - cdf lose up to eps/p = 1.1e-10 relative at p = 1e-6, and its quantile 1/shape <= 10
    times that.
    """

    PARAMS = dict(shape=st.floats(0.1, 10.0), log10_scale=st.floats(-6.0, 6.0), p=st.floats(1e-6, 1.0 - 1e-6))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(**PARAMS)
    def test_frechet_is_the_gumbel_of_log_x(self, shape, log10_scale, p):
        scale = 10.0**log10_scale
        frechet, gumbel = Frechet(shape, scale), Gumbel(math.log(scale), 1.0 / shape)
        x = frechet.quantile(p)
        assert frechet.cdf(x) == pytest.approx(gumbel.cdf(math.log(x)), rel=1e-11)
        assert x == pytest.approx(math.exp(gumbel.quantile(p)), rel=1e-11)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(**PARAMS)
    def test_weibull_is_the_gumbel_of_minus_log_x(self, shape, log10_scale, p):
        scale = 10.0**log10_scale
        weibull, gumbel = Weibull(shape, scale), Gumbel(-math.log(scale), 1.0 / shape)
        x = weibull.quantile(p)
        assert weibull.cdf(x) == pytest.approx(1.0 - gumbel.cdf(-math.log(x)), rel=1e-8)
        assert x == pytest.approx(math.exp(-gumbel.quantile(1.0 - p)), rel=1e-8)


def test_default_return_periods_constant():
    assert DEFAULT_RETURN_PERIODS == (5.0, 10.0, 50.0, 100.0, 200.0)

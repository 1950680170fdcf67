"""Descriptive statistics, Anderson-Darling goodness of fit, and fit diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import FAMILIES, Distribution, clamp_probability
from .errors import DegenerateSampleError, DomainError, EmptyInputError
from .sample import Sample, whole_number

__all__ = [
    "DescriptiveStats",
    "GofResult",
    "QqSeries",
    "DiffSeries",
    "AD_CRITICAL_VALUES",
    "describe",
    "anderson_darling",
    "plotting_positions",
    "qq_series",
    "probability_difference",
    "select_best",
]

# Anderson-Darling critical values (all-parameters-known case). Only the 5%
# level is known, so ``alpha`` must be 0.05. The same critical value is applied
# to fits with estimated parameters, a deliberate, documented approximation
# common in applied frequency analysis.
AD_CRITICAL_VALUES = {0.05: 2.502}


@dataclass(frozen=True)
class DescriptiveStats:
    """Summary statistics of a block-maxima sample.

    ``skewness`` is the adjusted Fisher-Pearson estimator and
    ``excess_kurtosis`` the matching bias-adjusted excess estimator; both are
    NaN when the sample is too small to define them (n < 3 resp. n < 4).
    """

    n: int
    range: float
    mean: float
    variance: float
    std_dev: float
    coef_variation_pct: float
    std_error: float
    skewness: float
    excess_kurtosis: float


@dataclass(frozen=True)
class GofResult:
    """One Anderson-Darling test row: statistic vs critical value."""

    family: str
    statistic: float
    alpha: float
    critical_value: float
    passed: bool

    @classmethod
    def from_statistic(
        cls, family: str, statistic: float, alpha: float, critical_value: float
    ) -> "GofResult":
        """Apply the acceptance gate: pass iff statistic < critical value."""
        return cls(
            family=family,
            statistic=float(statistic),
            alpha=float(alpha),
            critical_value=float(critical_value),
            passed=bool(statistic < critical_value),
        )


@dataclass(frozen=True, eq=False)
class QqSeries:
    """Theoretical quantiles vs observed order statistics at positions i/(n+1)."""

    family: str
    positions: np.ndarray
    theoretical: np.ndarray
    observed: np.ndarray


@dataclass(frozen=True, eq=False)
class DiffSeries:
    """Empirical-minus-fitted cumulative probability at each order statistic."""

    family: str
    x: np.ndarray
    diff: np.ndarray


def describe(sample: Sample) -> DescriptiveStats:
    """Descriptive statistics with n-1 variance and bias-adjusted shape estimators.

    Taken of the sorted values, at the unit of :func:`~evtkit.sample.standardize`, which the coefficient
    of variation needs near the float maximum; a value past the float range is inf. That coefficient is
    NaN where it is not finite: at mean 0, and where ``100 * sd / mean`` overflows on a subnormal mean.
    The standardization is the sample's own (:meth:`~evtkit.sample.Sample.standardized`), which the
    Gumbel and GEV fits share.
    """
    n = sample.n
    if n < 2:
        raise DegenerateSampleError("need at least two observations to describe")
    x = sample.sorted_values()
    unit, mean, sd, z = sample.standardized()
    std_dev = unit * sd  # Python floats: inf past the float range, with no warning
    variance = std_dev * std_dev
    std_error = std_dev / math.sqrt(n)
    coef_variation_pct = 100.0 * sd / mean if mean != 0.0 else math.nan
    if not math.isfinite(coef_variation_pct):
        coef_variation_pct = math.nan  # math.nan itself: report equality matches NaN by identity

    # Sums by np.add.reduce, which is np.mean's and np.sum's sum without their dispatch.
    m2 = float(np.add.reduce(z**2)) / n
    skewness = math.nan
    excess_kurtosis = math.nan
    if m2 > 0.0:
        if n > 2:
            g1 = float(np.add.reduce(z**3)) / n / m2**1.5
            skewness = g1 * math.sqrt(n * (n - 1.0)) / (n - 2.0)
        if n > 3:
            g2 = float(np.add.reduce(z**4)) / n / m2**2 - 3.0
            excess_kurtosis = ((n + 1.0) * g2 + 6.0) * (n - 1.0) / ((n - 2.0) * (n - 3.0))

    return DescriptiveStats(
        n=n,
        range=unit * (float(np.max(x)) / unit - float(np.min(x)) / unit),
        mean=unit * mean,
        variance=variance,
        std_dev=std_dev,
        coef_variation_pct=coef_variation_pct,
        std_error=std_error,
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
    )


def anderson_darling(sample: Sample, dist: Distribution, alpha: float = 0.05) -> GofResult:
    """Anderson-Darling test of ``sample`` against the fitted ``dist`` at level ``alpha``.

    The statistic is
    ``A2 = -n - (1/n) * sum_i (2i-1) * [ln F(x_(i)) + ln(1 - F(x_(n-i+1)))]``
    over the ascending order statistics; cdf values are clamped away from
    0 and 1 before the logarithms, so boundary observations cannot produce
    infinities. The result is invariant to the input ordering. An ``alpha``
    with no critical value in ``AD_CRITICAL_VALUES`` raises DomainError.
    """
    if alpha not in AD_CRITICAL_VALUES:
        raise DomainError(f"no critical value for alpha={alpha}; available: {tuple(AD_CRITICAL_VALUES)}")

    n = sample.n
    z = clamp_probability(dist.cdf(sample.sorted_values()))
    coeff = 2.0 * np.arange(1, n + 1) - 1.0
    statistic = -n - float(np.add.reduce(coeff * (np.log(z) + np.log1p(-z[::-1])))) / n
    return GofResult.from_statistic(dist.family, statistic, alpha, AD_CRITICAL_VALUES[alpha])


def plotting_positions(n: int) -> np.ndarray:
    """Weibull plotting positions i/(n+1), i = 1..n, for whole n >= 1: a new read-only array on each call."""
    n = whole_number(n, "sample size")
    if n < 1:
        raise DomainError("sample size must be at least 1")
    positions = np.arange(1, n + 1) / (n + 1.0)
    positions.flags.writeable = False
    return positions


def _positions(sample: Sample) -> np.ndarray:
    """The plotting positions of ``sample``, made once and kept on it beside its sorted values."""
    return sample._keep("_positions", lambda: plotting_positions(sample.n))


def qq_series(sample: Sample, dist: Distribution) -> QqSeries:
    """Quantile-quantile series (quantile at i/(n+1), i-th order statistic) on the sample's kept arrays."""
    positions = _positions(sample)
    return QqSeries(
        family=dist.family,
        positions=positions,
        theoretical=dist.quantile(positions),
        observed=sample.sorted_values(),
    )


def probability_difference(sample: Sample, dist: Distribution) -> DiffSeries:
    """Difference series i/(n+1) - F(x_(i)) over the ascending order statistics, on the sample's kept arrays."""
    x = sample.sorted_values()
    return DiffSeries(family=dist.family, x=x, diff=_positions(sample) - dist.cdf(x))


def select_best(gofs: list[GofResult]) -> str:
    """Pick the family with the smallest statistic among the passing tests.

    Falls back to the smallest statistic overall when nothing passes; ties
    break by the fixed family order.
    """
    pool = [g for g in gofs if g is not None]
    if not pool:
        raise EmptyInputError("no goodness-of-fit results to select from")

    def rank(g: GofResult):
        return (g.statistic, FAMILIES.index(g.family))

    passing = [g for g in pool if g.passed]
    return min(passing or pool, key=rank).family

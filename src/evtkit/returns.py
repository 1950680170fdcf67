"""Return-period levels and return-level curves.

The T-year return level is the level exceeded on average once every T
years, i.e. the quantile of the fitted annual-maximum distribution at
non-exceedance probability 1 - 1/T. The quantile is the single source of
truth for every family (for the GEV this reproduces the closed form
location + scale/shape * [(-log(1 - 1/T))^(-shape) - 1] exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import DomainError
from .sample import whole_number

__all__ = [
    "ReturnSpec",
    "ReturnLevelTable",
    "DEFAULT_RETURN_PERIODS",
    "return_level",
    "return_level_table",
    "return_curve",
]

DEFAULT_RETURN_PERIODS = (5.0, 10.0, 50.0, 100.0, 200.0)


def _probabilities(periods) -> np.ndarray:
    """The probabilities 1 - 1/T of return periods T; the one check on a period.

    Raises DomainError naming the first T that is not greater than 1, or so
    large (inf included) that 1 - 1/T rounds to 1.
    """
    periods = np.asarray(periods, dtype=float)
    with np.errstate(all="ignore"):  # 1/T is inf at T = 0 and at subnormal T
        probabilities = 1.0 - 1.0 / periods
    bad = ~((periods > 1.0) & (probabilities < 1.0))
    if bad.any():
        period = float(periods[bad.argmax()])
        reason = "must be finite and greater than 1"
        if period > 1.0:
            reason = "is too large: 1 - 1/period rounds to 1 (periods from about 1.8e16 up)"
        raise DomainError(f"return period {period!r} {reason}")
    return probabilities


@dataclass(frozen=True)
class ReturnSpec:
    """Strictly increasing return periods in years, each greater than 1."""

    periods: tuple[float, ...] = DEFAULT_RETURN_PERIODS

    def __post_init__(self):
        periods = tuple(float(p) for p in self.periods)
        if not periods:
            raise DomainError("at least one return period is required")
        _probabilities(periods)
        if any(b <= a for a, b in zip(periods, periods[1:])):
            raise DomainError("return periods must be strictly increasing")
        object.__setattr__(self, "periods", periods)


@dataclass(frozen=True)
class ReturnLevelTable:
    """(period, level) rows; levels increase strictly with the period."""

    entries: tuple[tuple[float, float], ...]

    @property
    def periods(self) -> tuple[float, ...]:
        return tuple(p for p, _ in self.entries)

    @property
    def levels(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)


def return_level(dist: Distribution, period: float) -> float:
    """Level exceeded on average once every ``period`` years.

    Raises
    ------
    DomainError
        If ``period`` is not greater than 1, or so large that 1 - 1/period rounds to 1.
    """
    return dist.quantile(_probabilities([period])[0])


def return_level_table(dist: Distribution, spec: ReturnSpec) -> ReturnLevelTable:
    """One (period, level) row per requested period."""
    levels = dist.quantile(_probabilities(spec.periods))
    return ReturnLevelTable(entries=tuple(zip(spec.periods, levels.tolist())))


def return_curve(
    dist: Distribution, p_min: float, p_max: float, n_points: int
) -> list[tuple[float, float]]:
    """Return levels over ``n_points`` log-spaced periods from p_min to p_max.

    ``p_min`` may equal ``p_max``. Every period below an accepted ``p_max`` is accepted too.
    Periods lie in [p_min, p_max]: geomspace may round one just past an end,
    and that one is clipped to it.
    """
    p_min, p_max = float(p_min), float(p_max)
    _probabilities((p_min, p_max))
    if p_min > p_max:
        raise DomainError("need 1 < p_min <= p_max")
    n_points = whole_number(n_points, "curve points")
    if n_points < 2:
        raise DomainError("need at least two curve points")
    periods = np.clip(np.geomspace(p_min, p_max, n_points), p_min, p_max)
    levels = dist.quantile(_probabilities(periods))
    return list(zip(periods.tolist(), levels.tolist()))

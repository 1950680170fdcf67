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

__all__ = [
    "ReturnSpec",
    "ReturnLevelTable",
    "DEFAULT_RETURN_PERIODS",
    "return_level",
    "return_level_table",
    "return_curve",
]

DEFAULT_RETURN_PERIODS = (5.0, 10.0, 50.0, 100.0, 200.0)


def _check_not_too_large(period: float) -> None:
    """Raise DomainError when the non-exceedance probability 1 - 1/period rounds to 1."""
    if 1.0 - 1.0 / period == 1.0:
        raise DomainError(
            f"return period {period!r} is too large: 1 - 1/period rounds to 1 "
            "(periods from about 1.8e16 up)"
        )


@dataclass(frozen=True)
class ReturnSpec:
    """Strictly increasing return periods in years, each greater than 1."""

    periods: tuple[float, ...] = DEFAULT_RETURN_PERIODS

    def __post_init__(self):
        periods = tuple(float(p) for p in self.periods)
        if not periods:
            raise DomainError("at least one return period is required")
        if any(not np.isfinite(p) or p <= 1.0 for p in periods):
            raise DomainError("return periods must be finite and greater than 1")
        for p in periods:
            _check_not_too_large(p)
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
    period = float(period)
    if not (np.isfinite(period) and period > 1.0):
        raise DomainError("return period must be finite and greater than 1")
    _check_not_too_large(period)
    return float(dist.quantile(1.0 - 1.0 / period))


def return_level_table(dist: Distribution, spec: ReturnSpec) -> ReturnLevelTable:
    """One (period, level) row per requested period."""
    return ReturnLevelTable(
        entries=tuple((p, return_level(dist, p)) for p in spec.periods)
    )


def return_curve(
    dist: Distribution, p_min: float, p_max: float, n_points: int
) -> list[tuple[float, float]]:
    """Return levels over ``n_points`` log-spaced periods from p_min to p_max.

    Every period below an accepted ``p_max`` is accepted too.
    """
    p_min, p_max = float(p_min), float(p_max)
    if not (1.0 < p_min < p_max):
        raise DomainError("need 1 < p_min < p_max")
    _check_not_too_large(p_max)
    if int(n_points) < 2:
        raise DomainError("need at least two curve points")
    periods = np.geomspace(p_min, p_max, int(n_points))
    levels = dist.quantile(1.0 - 1.0 / periods)
    return [(float(p), float(v)) for p, v in zip(periods, levels)]

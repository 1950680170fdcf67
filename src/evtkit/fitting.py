"""Maximum-likelihood estimation of the extreme value families.

Each family is fitted by direct log-likelihood maximization with one
Nelder-Mead simplex search, run in transformed coordinates: scales and
positive shapes are optimized on the log scale so positivity holds by
construction, and the GEV shape is kept above -1. The GEV search starts from
the fitted Gumbel at shape 0, its nested case. Points where an observation
falls outside the candidate support evaluate to a log-likelihood of -inf,
which the simplex treats as worst-vertex.

Fits run on standardized data, Gumbel and GEV on ``(x - mean) / sd`` and
Frechet and Weibull on ``log x``, so initial steps and tolerances mean the
same at every data scale (Coles 2001, section 3.3). The objective sums the
family's ``log_density``; the parameters are mapped back to data units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    EULER_GAMMA,
    FAMILIES,
    Distribution,
    Frechet,
    GEV,
    Gumbel,
    Weibull,
)
from .errors import DegenerateSampleError, DomainError
from .sample import Sample, scaled_deviations
from .simplex import nelder_mead

__all__ = [
    "OptimizerConfig",
    "FitResult",
    "FitOutcome",
    "log_likelihood",
    "initial_params",
    "fit_mle",
    "fit_all",
]

_MIN_FIT_SIZE = 3

# At shape -1 and below the GEV likelihood is unbounded as the upper end of
# the support reaches the sample maximum (Smith 1985), so the fit stays above.
_GEV_SHAPE_FLOOR = -1.0


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 10_000
    function_tolerance: float = 1e-8
    parameter_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise DomainError("max_iterations must be positive")
        if self.function_tolerance <= 0 or self.parameter_tolerance <= 0:
            raise DomainError("tolerances must be positive")


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus the maximized log-likelihood and search metadata."""

    params: Distribution
    log_likelihood: float
    converged: bool
    iterations: int
    n_evaluations: int
    initial_params: Distribution


@dataclass(frozen=True)
class FitOutcome:
    """Per-family entry of a batch fit: either a result or an error message."""

    family: str
    result: FitResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def log_likelihood(dist: Distribution, sample: Sample) -> float:
    """Sum of the log density over all observations.

    Returns -inf when any observation lies outside the support of ``dist``.
    """
    return float(np.sum(dist.log_pdf(sample.values)))


def _fit_data(family: str, sample: Sample, min_size: int) -> tuple[np.ndarray, float, float]:
    """The values a family is fitted on (x, or log x), with their mean and standard deviation."""
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if sample.n < min_size:
        raise DegenerateSampleError(f"need at least {min_size} observations to fit, got {sample.n}")

    if family in ("frechet", "weibull"):
        if np.any(sample.values <= 0.0):
            raise DomainError(
                f"{family} supports only positive values; sample minimum is "
                f"{float(sample.values.min())}"
            )
        work = np.log(sample.values)
    else:
        work = sample.values

    mean, sd, _ = scaled_deviations(work)
    if sd == 0.0:
        raise DegenerateSampleError("sample standard deviation is zero")
    return work, mean, sd


def _moment_start(family: str, mean: float, sd: float) -> Distribution:
    gumbel_scale = sd * math.sqrt(6.0) / math.pi
    if family == "gumbel":
        return Gumbel(location=mean - EULER_GAMMA * gumbel_scale, scale=gumbel_scale)
    if family == "frechet":
        return Frechet(shape=1.0 / gumbel_scale, scale=math.exp(mean - EULER_GAMMA * gumbel_scale))
    return Weibull(shape=1.0 / gumbel_scale, scale=math.exp(mean + EULER_GAMMA * gumbel_scale))


def initial_params(family: str, sample: Sample) -> Distribution:
    """Deterministic moment-matching starting point for ``family``.

    Gumbel/GEV match mean and standard deviation of the data (the GEV at
    shape 0, its Gumbel case); Frechet and Weibull apply the same Gumbel
    moment matching to the log data, which lands inside the valid parameter
    domain whenever the data are strictly positive.

    Raises
    ------
    DegenerateSampleError
        Fewer than two observations, or zero standard deviation.
    DomainError
        Frechet/Weibull requested for data with non-positive values.
    """
    _, mean, sd = _fit_data(family, sample, 2)
    if family == "gev":
        return _at_shape_zero(_moment_start("gumbel", mean, sd))
    return _moment_start(family, mean, sd)


def _at_shape_zero(gumbel: Gumbel) -> GEV:
    return GEV(location=gumbel.location, scale=gumbel.scale, shape=0.0)


def _pack(dist: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """Map a parameter record to unconstrained optimizer coordinates and steps."""
    if isinstance(dist, Gumbel):
        theta = [dist.location, math.log(dist.scale)]
        steps = [0.1 * dist.scale, 0.1]
    else:  # Frechet (location pinned at 0) and Weibull
        theta = [math.log(dist.shape), math.log(dist.scale)]
        steps = [0.1, 0.1]
    return np.asarray(theta, dtype=float), np.asarray(steps, dtype=float)


def _unpack(family: str, theta: np.ndarray, mean: float, sd: float) -> Distribution | None:
    """Inverse of :func:`_pack` (Gumbel/GEV on ``(x - mean) / sd``); None when infeasible."""
    try:
        if family == "gumbel":
            return Gumbel(location=mean + sd * theta[0], scale=sd * math.exp(theta[1]))
        if family == "gev":
            return GEV(location=mean + sd * theta[0], scale=sd * math.exp(theta[1]), shape=theta[2])
        if family == "frechet":
            return Frechet(shape=math.exp(theta[0]), scale=math.exp(theta[1]))
        return Weibull(shape=math.exp(theta[0]), scale=math.exp(theta[1]))
    except (DomainError, OverflowError):
        return None


def fit_mle(
    family: str,
    sample: Sample,
    config: OptimizerConfig = DEFAULT_CONFIG,
    *,
    _gumbel_fit: FitResult | None = None,
) -> FitResult:
    """Fit ``family`` to ``sample`` by maximum likelihood, with one simplex search.

    The search starts from :func:`initial_params`, except for the GEV: its
    search starts from the fitted Gumbel solution with shape 0 (which
    :func:`fit_all` passes in, as it has already made it). The simplex never
    trades its best vertex for a worse one, so the fitted GEV log-likelihood
    never falls below the fitted Gumbel one. The GEV shape is kept above -1,
    where the likelihood becomes unbounded. ``initial_params`` of the result
    is the point the search started from, in data units; ``iterations`` and
    ``n_evaluations`` count the family's own search, not the Gumbel fit.
    The fitted parameters follow any change of units of the data.

    A result with ``converged=False`` (rather than an exception) is returned
    when the iteration budget runs out before the simplex collapses, and,
    reporting the start, when the search found no point whose log-likelihood
    on the data is finite.

    Raises
    ------
    DegenerateSampleError
        Fewer than three observations, or zero standard deviation.
    DomainError
        Unknown family, or data outside the family support.
    """
    work, mean, sd = _fit_data(family, sample, _MIN_FIT_SIZE)
    if family in ("frechet", "weibull"):
        data, init = work, _moment_start(family, mean, sd)
        theta0, steps = _pack(init)
    else:
        data, init = (work - mean) / sd, _moment_start("gumbel", mean, sd)
        theta0, steps = _pack(_moment_start("gumbel", 0.0, 1.0))
    if family == "gev":
        gumbel = (_gumbel_fit or fit_mle("gumbel", sample, config)).params
        init = _at_shape_zero(gumbel)
        theta0 = [(gumbel.location - mean) / sd, math.log(gumbel.scale / sd), 0.0]
        steps = [*steps, 0.1]
    log_density = type(init).log_density
    bounded = family == "gev"

    def nll(theta):
        if bounded and theta[2] <= _GEV_SHAPE_FLOOR:
            return math.inf
        value = -log_density(data, *theta).sum()
        return value if math.isfinite(value) else math.inf

    with np.errstate(all="ignore"):
        best = nelder_mead(
            nll,
            theta0,
            initial_steps=steps,
            max_iterations=config.max_iterations,
            function_tolerance=config.function_tolerance,
            parameter_tolerance=config.parameter_tolerance,
        )
    params = _unpack(family, best.x, mean, sd) if math.isfinite(best.fun) else None
    loglik = -math.inf if params is None else log_likelihood(params, sample)
    converged = best.converged
    if not math.isfinite(loglik):
        # No feasible point found, or rounding on the way back to data units
        # left an observation off the support: report the start, unconverged.
        params, converged = init, False
        loglik = log_likelihood(init, sample)

    return FitResult(
        params=params,
        log_likelihood=loglik,
        converged=converged,
        iterations=best.iterations,
        n_evaluations=best.n_evaluations,
        initial_params=init,
    )


def fit_all(sample: Sample, config: OptimizerConfig = DEFAULT_CONFIG) -> list[FitOutcome]:
    """Fit all four families, in the fixed family order.

    The Gumbel fit also serves as the shape-0 anchor of the GEV fit.

    Per-family failures (support violations, degenerate input) are captured
    in the returned entries instead of aborting the batch.
    """
    outcomes = []
    for family in FAMILIES:
        gumbel = outcomes[0].result if family == "gev" else None  # FAMILIES starts with gumbel
        try:
            result = fit_mle(family, sample, config, _gumbel_fit=gumbel)
            outcomes.append(FitOutcome(family, result=result))
        except (DomainError, DegenerateSampleError) as exc:
            outcomes.append(FitOutcome(family, error=str(exc)))
    return outcomes

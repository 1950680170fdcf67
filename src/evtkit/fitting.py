"""Maximum-likelihood estimation of the extreme value families.

Every family is fitted by log-likelihood maximization with one Nelder-Mead
simplex search, as a Gumbel or a GEV of its Gumbel values w: x, log x or
-log x. Each distribution class maps the data to w and a fitted Gumbel or
GEV back to its record (Coles 2001, section 3.1), so nothing here branches
on the family except the GEV's shape bounds, its start and its location
repair. The search runs on ``(w - mean) / sd``, taken at the power-of-two
unit of :func:`~evtkit.sample.standardize`, where initial steps and
tolerances mean the same at every data scale (Coles 2001, section 3.3).
Scales are searched on the log scale, and the GEV shape is kept inside
(-1, 1). The GEV search starts from the fitted Gumbel at shape 0, its nested case.
Every search sums the one likelihood kernel, ``GEV.log_density``, which at
shape 0 is the Gumbel's. Each search allocates one workspace, two arrays
shaped like its data, and every evaluation writes the kernel into it, so no
evaluation allocates anything the size of the data. A point that leaves an
observation off the support has log-likelihood -inf or nan, both the
simplex's worst vertex. The parameters are mapped back to data units.
The search has no settings: it runs to the fixed tolerance of
:func:`~evtkit.simplex.nelder_mead` or its iteration budget of 10 000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import EULER_GAMMA, FAMILIES, GEV, Distribution, _family_class
from .errors import DegenerateSampleError, DomainError
from .sample import Sample, standardize
from .simplex import nelder_mead

__all__ = [
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
# At shape 1 and above the GEV mean is infinite (Coles & Dixon 1999); on a few
# values the search could run away there until its iteration budget was spent.
_GEV_SHAPE_CEILING = 1.0


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


def _fit_data(family: str, sample: Sample, min_size: int) -> tuple[type, np.ndarray, float, float, float]:
    """The family's class, its Gumbel values w as ``(w - mean) / sd``, and the unit of w and, at it, that mean and sd."""
    cls = _family_class(family)
    if sample.n < min_size:
        raise DegenerateSampleError(f"need at least {min_size} observations to fit, got {sample.n}")
    with np.errstate(divide="ignore"):
        work = cls._gumbel_values(sample.values)
    if not np.all(np.isfinite(work)):
        raise DomainError(
            f"{family} supports only positive values; sample minimum is {float(sample.values.min())}"
        )
    unit, mean, sd, data = standardize(work)
    if sd == 0.0:
        raise DegenerateSampleError("sample standard deviation is zero")
    return cls, data, unit, mean, sd


def _moment_gumbel(unit: float, mean: float, sd: float) -> tuple[float, float]:
    """Location and scale of the Gumbel with the given mean and standard deviation at ``unit``, in data units."""
    scale = sd * math.sqrt(6.0) / math.pi
    return unit * (mean - EULER_GAMMA * scale), unit * scale


def initial_params(family: str, sample: Sample) -> Distribution:
    """Deterministic moment-matching starting point for ``family``.

    The Gumbel that matches the mean and standard deviation of the values
    the family is fitted on: x for Gumbel and GEV (the GEV at shape 0, its
    Gumbel case), log x for Frechet and -log x for Weibull, mapped to the
    family. It lies inside the parameter domain whenever the data are
    strictly positive. :func:`fit_mle` starts the Gumbel, Frechet and
    Weibull searches here, but the GEV search from the fitted Gumbel.

    Raises
    ------
    DegenerateSampleError
        Fewer than two observations, or zero standard deviation.
    DomainError
        Unknown family, or Frechet/Weibull requested for data with non-positive values.
    """
    cls, _, unit, mean, sd = _fit_data(family, sample, 2)
    return cls._from_gumbel(*_moment_gumbel(unit, mean, sd))


def _unpack(cls: type, theta, unit: float, mean: float, sd: float) -> Distribution | None:
    """Parameters in data units of a search point on ``(w - mean) / sd``; None when infeasible."""
    try:
        return cls._from_gumbel(unit * (mean + sd * float(theta[0])), unit * (sd * math.exp(theta[1])), *theta[2:])
    except (DomainError, OverflowError):
        return None


def fit_mle(family: str, sample: Sample, *, _gumbel_fit: FitResult | None = None) -> FitResult:
    """Fit ``family`` to ``sample`` by maximum likelihood, with one simplex search.

    Gumbel, Frechet and Weibull are a Gumbel search on their standardized
    Gumbel values (x, log x and -log x) from :func:`initial_params`, mapped
    back by the family's class. The GEV search starts from the fitted Gumbel
    with shape 0 (which :func:`fit_all` passes in, as it has already made
    it). The simplex never trades its best vertex for a worse one, so the
    fitted GEV log-likelihood never falls below the fitted Gumbel one. The
    GEV shape is kept inside (-1, 1): at -1 and below the likelihood is
    unbounded, and at 1 and above the mean is infinite. ``initial_params`` of
    the result is the point the search started from, in data units;
    ``iterations`` and ``n_evaluations`` count the family's own search, not
    the Gumbel fit. ``log_likelihood`` is that of the fitted parameters on
    ``sample`` itself. The fitted parameters follow any change of units of
    the data. When rounding on the way back to data units puts the finite
    end of a GEV support onto an observation, the location moves outward by
    1, 2, 4, ... floats, at most 64 times, until the likelihood is finite;
    the moves stop before the location would leave the float range.

    A result with ``converged=False`` (rather than an exception) is returned
    when the iteration budget of :func:`~evtkit.simplex.nelder_mead` runs out
    before the simplex collapses, and, reporting the start, when the search
    found no point whose log-likelihood on the data is finite.

    Raises
    ------
    DegenerateSampleError
        Fewer than three observations, or zero standard deviation.
    DomainError
        Unknown family, or data outside the family support.
    """
    cls, data, unit, mean, sd = _fit_data(family, sample, _MIN_FIT_SIZE)
    location, scale = _moment_gumbel(1.0, 0.0, 1.0)
    theta0, steps = [location, math.log(scale)], [0.1 * scale, 0.1]
    start = _moment_gumbel(unit, mean, sd)
    bounded = family == "gev"
    if bounded:
        gumbel = (_gumbel_fit or fit_mle("gumbel", sample)).params
        start = gumbel.location, gumbel.scale
        theta0 = [(gumbel.location / unit - mean) / sd, math.log(gumbel.scale / unit / sd), 0.0]
        steps = [*steps, 0.1]
    init = cls._from_gumbel(*start)
    workspace = np.empty_like(data), np.empty_like(data)

    def nll(theta):
        if bounded and not _GEV_SHAPE_FLOOR < theta[2] < _GEV_SHAPE_CEILING:
            return math.inf
        value = -GEV.log_density(data, *theta, out=workspace).sum()
        return value if math.isfinite(value) else math.inf

    with np.errstate(all="ignore"):
        best = nelder_mead(nll, theta0, initial_steps=steps)
    params = _unpack(cls, best.x, unit, mean, sd) if math.isfinite(best.fun) else None
    loglik = -math.inf if params is None else log_likelihood(params, sample)
    if bounded and params is not None and params.shape and not math.isfinite(loglik):
        # Rounding on the way back to data units can put the finite end of the
        # support onto an extreme observation; near shape -1, undoing it can take
        # hundreds of floats of location. Move the location outward by 1, 2, 4,
        # ... floats, at most 64 times, until the log-likelihood is finite, or
        # until the location leaves the float range.
        fitted = params
        outward = math.copysign(math.inf, -fitted.shape)
        one_float = math.nextafter(fitted.location, outward) - fitted.location
        for doubling in range(64):
            location = fitted.location + one_float * 2.0**doubling
            if not math.isfinite(location):
                break
            params = GEV(location, fitted.scale, fitted.shape)
            loglik = log_likelihood(params, sample)
            if math.isfinite(loglik):
                break
    converged = best.converged
    if not math.isfinite(loglik):
        # No feasible point found, or an observation is still off the support:
        # report the start, unconverged.
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


def fit_all(sample: Sample) -> list[FitOutcome]:
    """Fit all four families, in the fixed family order.

    The Gumbel fit also serves as the shape-0 anchor of the GEV fit.

    Per-family failures (support violations, degenerate input) are captured
    in the returned entries instead of aborting the batch.
    """
    outcomes = []
    for family in FAMILIES:
        gumbel = outcomes[0].result if family == "gev" else None  # FAMILIES starts with gumbel
        try:
            result = fit_mle(family, sample, _gumbel_fit=gumbel)
            outcomes.append(FitOutcome(family, result=result))
        except (DomainError, DegenerateSampleError) as exc:
            outcomes.append(FitOutcome(family, error=str(exc)))
    return outcomes

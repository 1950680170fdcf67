"""Maximum-likelihood estimation of the extreme value families.

Every family is fitted by log-likelihood maximization with one Nelder-Mead
simplex search, as a Gumbel or a GEV of its Gumbel values w: x, log x or
-log x, taken of x / u for the power-of-two unit u of the data
(:func:`~evtkit.sample.binary_unit`; for the logarithms, one that keeps each
x / u a normal float where it can), so that rescaling the data by a power of
two moves no fitted bit. Each distribution class maps the data to w and a
fitted Gumbel or GEV back to its record (Coles 2001, section 3.1), so
nothing here branches on the family except to give the GEV its own search.
The search runs on ``(w - mean) / sd``, taken at the power-of-two unit of
:func:`~evtkit.sample.standardize`, where initial steps and tolerances mean
the same at every data scale (Coles 2001, section 3.3). Scales are searched
on the log scale. The Gumbel's location has a closed-form maximum at each
scale (Lawless 2003), so the Gumbel, Frechet and Weibull search runs over
the log scale alone, on that profile likelihood. The GEV search runs over
location, log scale and shape, with the shape kept inside (-1, 1), from the
fitted Gumbel at shape 0, its nested case, on the GEV negative
log-likelihood written as sums (Coles 2001, section 3.3.2): two in-place
passes write log t and t**(-1/shape) into the two rows of a (2, n)
workspace, and one reduction sums both rows. Both objectives are
second expressions of a likelihood beside the one kernel,
``GEV.log_density``, kept because they are faster: a GEV evaluation at
n = 85 takes about three quarters of the kernel's time. A fit is three
steps: :func:`_prepare` makes the standardized data and the start, a search
runs, and :func:`_finish` maps it back, repairs a GEV location or falls back
to the start. The Gumbel-type searches of one sample are lanes of one
(K, n) profile objective (:func:`~evtkit.simplex._lockstep`), so numpy's
fixed cost per call, which dominates near n = 100, is paid once per step
for all; each lane is its search alone, to the bit. They step together only
while K*n is at most 2**15 cells, and alone above it. Workspaces are
allocated once per set of running lanes, so no evaluation allocates
anything the size of the data. A point that leaves an observation off the
support has objective inf, the simplex's worst vertex. The parameters are
mapped back to data units, and the reported log-likelihood is
:func:`log_likelihood` of them on the data, which evaluates the kernel at
the data's power-of-two unit. The search has no settings: it runs to the
fixed tolerance of
:func:`~evtkit.simplex.nelder_mead` or its iteration budget of 10 000.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import EULER_GAMMA, FAMILIES, GEV, Distribution, _family_class, _log_t, _TINY_SHAPE
from .errors import DegenerateSampleError, DomainError
from .sample import Sample, binary_unit, standardize
from .simplex import _lockstep, _search, nelder_mead

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
# The scale of the Gumbel with standard deviation 1, where every search starts its scale.
_UNIT_SD_SCALE = math.sqrt(6.0) / math.pi
# The Gumbel-type searches step together while their data fit in this many cells.
_LOCKSTEP_CELLS = 2**15


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

    Evaluated at the :func:`~evtkit.sample.binary_unit` u of the sample (for
    Frechet and Weibull, the one for logarithms), as
    l(x/u; location/u, scale/u) - n*log(u). The first term is the same float
    when the data and the record are rescaled together by a power of two, and
    it stays finite on data whose range passes the float maximum. No
    observation is 0 or inf at u. A record whose location or scale would
    leave the float range at u, or whose scale would not be a normal float
    there, is evaluated in data units.

    Returns -inf when any observation lies outside the support of ``dist``.
    """
    unit = binary_unit(sample.values, logarithmic=dist._logarithmic)
    if not (math.isfinite(dist.location / unit) and sys.float_info.min <= dist.scale / unit < math.inf):
        unit = 1.0
    log_densities = dist._in_unit(unit).log_pdf(sample.values / unit)
    return float(np.sum(log_densities)) - sample.n * math.log(unit)


def _prepare(family: str, sample: Sample, min_size: int = _MIN_FIT_SIZE, start: Distribution | None = None) -> tuple:
    """The search problem of ``family``: its class, the sample's unit u, the Gumbel values w of x / u
    standardized, that is ``(w - mean) / sd``, the unit of w, that mean and sd at it, and the start.

    The start is ``start``, or else the record of the Gumbel with that mean and
    sd, mapped by the class. That is clipped to the float range in the
    family's own units: on data within a few floats of -max (or max), the
    Gumbel and GEV location mean - EULER_GAMMA * scale passes it, and on data
    near max, the Weibull scale u*exp(-location).
    """
    cls = _family_class(family)
    if sample.n < min_size:
        raise DegenerateSampleError(f"need at least {min_size} observations to fit, got {sample.n}")
    sample_unit = binary_unit(sample.values, logarithmic=cls._logarithmic)
    with np.errstate(divide="ignore"):
        work = cls._gumbel_values(sample.values / sample_unit)
    if not np.all(np.isfinite(work)):
        raise DomainError(
            f"{family} supports only positive values; sample minimum is {float(sample.values.min())}"
        )
    unit, mean, sd, data = standardize(work)
    if sd == 0.0:
        raise DegenerateSampleError("sample standard deviation is zero")
    if start is None:
        scale = sd * _UNIT_SD_SCALE
        location = unit * (mean - EULER_GAMMA * scale)
        if cls._logarithmic:
            record_scale = min(sample_unit * math.exp(cls.sign * location), sys.float_info.max)
            start = cls(shape=1.0 / (unit * scale), scale=record_scale)
        else:
            bound = sys.float_info.max / sample_unit  # a power of two: exact, or inf where no clip is needed
            start = cls._from_gumbel(sample_unit, min(max(location, -bound), bound), unit * scale)
    return cls, sample_unit, data, unit, mean, sd, start


def initial_params(family: str, sample: Sample) -> Distribution:
    """Deterministic moment-matching starting point for ``family``.

    The Gumbel that matches the mean and standard deviation of the values
    the family is fitted on: x for Gumbel and GEV (the GEV at shape 0, its
    Gumbel case), log(x/u) for Frechet and -log(x/u) for Weibull, with u the
    power-of-two unit of x for logarithms, mapped to the family. It lies
    inside the parameter domain whenever the data are strictly positive.
    :func:`fit_mle` starts the Gumbel, Frechet and Weibull searches at its
    scale, but the GEV search from the fitted Gumbel.

    Raises
    ------
    DegenerateSampleError
        Fewer than two observations, or zero standard deviation.
    DomainError
        Unknown family, or Frechet/Weibull requested for data with non-positive values.
    """
    return _prepare(family, sample, 2)[-1]


def _unpack(cls: type, theta, sample_unit: float, unit: float, mean: float, sd: float) -> Distribution | None:
    """Parameters in data units of a search point on ``(w - mean) / sd``; None when infeasible."""
    try:
        location, scale = unit * (mean + sd * float(theta[0])), unit * (sd * math.exp(theta[1]))
        return cls._from_gumbel(sample_unit, location, scale, *theta[2:])
    except (DomainError, OverflowError):
        return None


def _gumbel_profile_search(datas: list[np.ndarray]) -> list[tuple]:
    """Maximize the Gumbel likelihood of each of ``datas``, all of one size, over log(scale).

    For w_i = data - min(data) and scale s the location's maximum is
    min(data) - s*L(s), L(s) = log((1/n) * sum(exp(-w_i/s))), where the sum
    is at least its minimum's term 1, and the negative log-likelihood there
    is n*(log(s) + mean(w)/s + L(s) + 1) (Lawless 2003). Each search runs on
    log(s) from log(sqrt(6)/pi), the scale of the moment start, with step
    0.1, as a lane of one objective over the rows of -w (alone above the
    cells cap). Returns each search and its point (location, log(scale)).
    """
    if not datas:
        return []
    if len(datas) > 1 and len(datas) * datas[0].size > _LOCKSTEP_CELLS:
        return [found for data in datas for found in _gumbel_profile_search([data])]
    data = np.array(datas)
    n = data.shape[1]
    low = data.min(axis=1, keepdims=True)
    shifted = np.subtract(low, data)
    excess = (-np.add.reduce(shifted, 1) / n).tolist()

    def log_mean_exp(rows, points, scales, terms):
        # L of each row, at its point's scale, which stays a numpy float: past the float range it is inf or 0.
        np.exp(points, scales)
        totals = np.add.reduce(np.exp(np.divide(rows, scales, terms), terms), 1).tolist()
        return [math.log(total / n) for total in totals]

    def objective(lanes):
        rows, rests = shifted[lanes], [excess[lane] for lane in lanes]
        terms, scales = np.empty_like(rows), np.empty((len(lanes), 1))
        column = scales[:, 0]

        def nll(points):
            lme = log_mean_exp(rows, points, scales, terms)
            return [n * (t + e / s + m + 1.0) for (t,), e, s, m in zip(points, rests, column, lme)]

        return nll

    found = _lockstep(objective, [_search([math.log(_UNIT_SD_SCALE)], 0.1) for _ in datas])
    scales = np.empty((len(datas), 1))
    lme = log_mean_exp(shifted, [best.x for best in found], scales, np.empty_like(shifted))
    return [(best, [lo - s * m, best.x[0]]) for best, (lo,), s, m in zip(found, low.tolist(), scales[:, 0], lme)]


def _gev_objective(data: np.ndarray):
    """The GEV's negative log-likelihood of ``data`` at (location, log(scale), shape), summed.

    With t = 1 + shape*(x - location)/scale it is n*log(scale) +
    (1 + 1/shape)*sum(log t) + sum(t**(-1/shape)) (Coles 2001, section
    3.3.2): one in-place pass for log t, formed as in the kernel, and one for
    the powers, into the rows of a (2, n) workspace, summed in one reduction.
    At shape 0 it is the Gumbel's n*log(scale) + sum(z) + sum(exp(-z)),
    z = (x - location)/scale, with sum(z) from the sum of the data, taken
    once. A shape outside (-1, 1), or a value that is not finite (an
    observation off the support, or a scale past the float range), is inf.
    Call it under ``np.errstate(all="ignore")``.
    """
    n = data.size
    total = float(data.sum())
    workspace = np.empty((2, n))
    shifted, powers = workspace

    def nll(theta):
        location, log_scale, shape = theta.tolist()
        if not _GEV_SHAPE_FLOOR < shape < _GEV_SHAPE_CEILING:
            return math.inf
        inverse_scale = np.exp(-log_scale)  # a numpy float: inf past the float range, never an exception
        np.subtract(data, location, shifted)
        if shape:
            minus_w = _log_t(shifted, inverse_scale, shape, shifted, powers)
            # sum(w) is sum(log t) / shape, except below |shape| 2**-970, where that keeps few bits.
            total_w = -float(minus_w.sum()) if -_TINY_SHAPE < shape < _TINY_SHAPE else None
            np.exp(minus_w, powers)
            total_log_t, total_power = np.add.reduce(workspace, 1).tolist()
            # Divided by the shape, not multiplied by 1/shape, which overflows below 1/max.
            total_w = total_log_t / shape if total_w is None else total_w
            value = n * log_scale + total_log_t + total_w + total_power
        else:
            value = n * log_scale + (total - n * location) * inverse_scale
            value += np.exp(np.multiply(shifted, -inverse_scale, shifted), shifted).sum()
        return value if math.isfinite(value) else math.inf

    return nll


def fit_mle(family: str, sample: Sample, *, _gumbel_fit: FitResult | None = None) -> FitResult:
    """Fit ``family`` to ``sample`` by maximum likelihood, with one simplex search.

    Gumbel, Frechet and Weibull are a Gumbel fit to their standardized
    Gumbel values (x, log(x/u) and -log(x/u), u a power-of-two unit of x),
    mapped back by the family's class. The Gumbel's location has a closed
    form at each scale, so their search runs over log(scale) alone, started
    at the scale of :func:`initial_params`. The GEV search runs over
    location, log(scale) and shape, on the likelihood written as sums, from the
    fitted Gumbel with shape 0 (which :func:`fit_all` passes in, as it has
    already made it). The simplex never trades its best vertex for a worse
    one, so the fitted GEV log-likelihood never falls below the fitted
    Gumbel one. The GEV shape is kept inside (-1, 1): at -1 and below the
    likelihood is unbounded, and at 1 and above the mean is infinite.
    ``initial_params`` of the result is the point the search started from,
    in data units; ``iterations`` and ``n_evaluations`` count the family's
    own search, not the Gumbel fit, and a Gumbel-type search evaluates one
    coordinate. ``log_likelihood`` is :func:`log_likelihood` of the fitted
    parameters on ``sample`` itself, evaluated at the sample's power-of-two
    unit. The fitted parameters follow any change of units of the data,
    and a change by a power of two moves no fitted bit. When rounding on
    the way back to data units puts the finite end of a GEV support onto an
    observation, the location moves outward by 1, 2, 4, ... floats, at most
    64 times, until the likelihood is finite; the moves stop before the
    location would leave the float range.

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
    start = None
    if family == "gev":
        gumbel = (_gumbel_fit or fit_mle("gumbel", sample)).params
        start = GEV(gumbel.location, gumbel.scale, 0.0)
    problem = cls, sample_unit, data, unit, mean, sd, start = _prepare(family, sample, start=start)
    with np.errstate(all="ignore"):
        if family == "gev":
            location, scale = start.location / sample_unit / unit, start.scale / sample_unit / unit
            theta0 = [(location - mean) / sd, math.log(scale / sd), 0.0]
            best = nelder_mead(_gev_objective(data), theta0, initial_steps=[0.1 * _UNIT_SD_SCALE, 0.1, 0.1])
            found = best, best.x
        else:
            (found,) = _gumbel_profile_search([data])
    return _finish(problem, *found, sample)


def _finish(problem: tuple, best, theta, sample: Sample) -> FitResult:
    """The fit from ``problem``'s search: mapped back to data units, the GEV location repaired, or the start."""
    cls, sample_unit, _, unit, mean, sd, init = problem
    params = _unpack(cls, theta, sample_unit, unit, mean, sd) if math.isfinite(best.fun) else None
    loglik = -math.inf if params is None else log_likelihood(params, sample)
    if cls is GEV and params is not None and params.shape and not math.isfinite(loglik):
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

    The Gumbel, Frechet and Weibull searches run as lanes of one profile
    objective, and the Gumbel fit also serves as the shape-0 anchor of the
    GEV fit. Each outcome is that of :func:`fit_mle` of its family.

    Per-family failures (support violations, degenerate input) are captured
    in the returned entries instead of aborting the batch.
    """
    outcomes, problems = {}, {}
    for family in FAMILIES[:-1]:  # the Gumbel-type families; FAMILIES ends with the GEV
        try:
            problems[family] = _prepare(family, sample)
        except (DomainError, DegenerateSampleError) as exc:
            outcomes[family] = FitOutcome(family, error=str(exc))
    with np.errstate(all="ignore"):
        found = _gumbel_profile_search([data for _, _, data, *_ in problems.values()])
    for (family, problem), (best, theta) in zip(problems.items(), found):
        outcomes[family] = FitOutcome(family, result=_finish(problem, best, theta, sample))
    try:
        outcomes["gev"] = FitOutcome("gev", result=fit_mle("gev", sample, _gumbel_fit=outcomes["gumbel"].result))
    except (DomainError, DegenerateSampleError) as exc:
        outcomes["gev"] = FitOutcome("gev", error=str(exc))
    return [outcomes[family] for family in FAMILIES]

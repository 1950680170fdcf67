"""Maximum-likelihood estimation of the extreme value families.

Every family is fitted by log-likelihood maximization with one Nelder-Mead
simplex search, as a Gumbel or a GEV of its Gumbel values w: x, log x or
-log x, taken of the sorted x / u for the power-of-two unit u of the data
(:func:`~evtkit.sample.binary_unit`; for the logarithms, one that keeps each
x / u a normal float where it can), so that neither rescaling the data by a
power of two nor reordering it moves a fitted bit. Each distribution class
maps the data to w and a fitted Gumbel or GEV back to its record (Coles 2001,
section 3.1), so nothing here branches on the family except to give the GEV
its own search. The search runs on ``(w - mean) / sd``, from
:func:`~evtkit.sample.standardize`, where initial steps and tolerances mean
the same at every data scale (Coles 2001, section 3.3). Scales are searched
on the log scale. The Gumbel's location has a closed-form maximum at each
scale (Lawless 2003), so the Gumbel, Frechet and Weibull search runs over
the log scale alone, on that profile likelihood. The GEV search runs over
location, log scale and shape, with the shape kept inside (-1, 1), from the
fitted Gumbel at shape 0, its nested case, on the GEV negative
log-likelihood written as sums (Coles 2001, section 3.3.2): two in-place
passes write log t and t**(-1/shape) into the two rows of a (2, n)
workspace, and one reduction sums both rows. Both objectives are second
expressions of a likelihood beside the one kernel, ``GEV.log_density``,
kept because they are faster: a GEV evaluation takes about 0.6 of the
kernel's time at n = 51 to 85, and 0.4 at n = 100 000. A fit is three steps:
:func:`_prepare` makes the standardized data and the start, a search runs,
and :func:`_finish` maps it back, repairs a GEV location or falls back to
the start; :func:`_fit` runs them for :func:`fit_all` and :func:`fit_mle`
alike. Every search is a lane of :func:`~evtkit.simplex._lockstep`, whose
objective takes the lanes' points as lists: the Gumbel-type searches of one
sample are lanes of one (K, n) profile objective, so numpy's fixed cost per
call, which dominates near n = 100, is paid once per step for all, and the
GEV search is one lane. Each lane is its search alone, to the bit. Only a
GEV evaluation below |shape| 2**-970, shape 0 included, allocates arrays of
the data's length, each of one byte per value: the masks of where log t is a
normal float. A point that leaves an observation off the support has
objective inf, the simplex's worst vertex. The reported log-likelihood is
:func:`log_likelihood` of the parameters mapped back to data units. The
search has no settings: it runs to the simplex's fixed tolerance or its
budget of 10 000 iterations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import EULER_GAMMA, FAMILIES, GEV, Distribution, _family_class, _log_t, _TINY_SHAPE
from .errors import DegenerateSampleError, DomainError
from .sample import Sample, _binary_unit, standardize
from .simplex import _lockstep, _search, nelder_mead  # noqa: F401 (unused; a perfbench test reads fitting.nelder_mead)

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
    """Sum of the log density over all observations, taken in ascending order.

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
    x = sample.sorted_values()
    unit = _binary_unit(float(x[0]), float(x[-1]), dist._logarithmic)
    if not (math.isfinite(dist.location / unit) and sys.float_info.min <= dist.scale / unit < math.inf):
        unit = 1.0
    log_densities = dist._in_unit(unit).log_pdf(x / unit)
    return float(np.add.reduce(log_densities)) - sample.n * math.log(unit)


def _prepare(family: str, sample: Sample, min_size: int = _MIN_FIT_SIZE) -> tuple:
    """The Gumbel values w of x / u standardized, that is ``(w - mean) / sd``, for the sample's unit u,
    and the search problem of ``family``: its class, u, the mean and sd of w, and the start.

    The mean and sd are taken at w's power-of-two unit and multiplied back, exactly, as |w| < 745. The start
    is the record of the Gumbel with that mean and sd, mapped by the class and clipped to the float range
    in the family's own units: on data within a few floats of -max (or max), the Gumbel and GEV location
    mean - EULER_GAMMA * scale passes it, and on data near max, the Weibull scale u*exp(-location).
    """
    cls = _family_class(family)
    if sample.n < min_size:
        raise DegenerateSampleError(f"need at least {min_size} observations to fit, got {sample.n}")
    if cls._logarithmic:
        x = sample.sorted_values()
        sample_unit = _binary_unit(float(x[0]), float(x[-1]), True)
        with np.errstate(divide="ignore"):
            work = cls._gumbel_values(x / sample_unit)
        if not np.all(np.isfinite(work)):
            raise DomainError(f"{family} supports only positive values; sample minimum is {float(x[0])}")
        # w is monotone in ascending x; each family sums it ascending, so -log x is reversed.
        unit, mean, sd, data = standardize(work if work[0] <= work[-1] else work[::-1])
        mean, sd = unit * mean, unit * sd
    else:
        # w = x / u, whose own unit is 1: the sample's standardization, taken at u, is that of w.
        sample_unit, mean, sd, data = sample.standardized()
    if sd == 0.0:
        raise DegenerateSampleError("sample standard deviation is zero")
    scale = sd * _UNIT_SD_SCALE
    location = mean - EULER_GAMMA * scale
    if cls._logarithmic:
        record_scale = min(sample_unit * math.exp(cls.sign * location), sys.float_info.max)
        start = cls(shape=1.0 / scale, scale=record_scale)
    else:
        bound = sys.float_info.max / sample_unit  # a power of two: exact, or inf where no clip is needed
        start = cls._from_gumbel(sample_unit, min(max(location, -bound), bound), scale)
    return data, (cls, sample_unit, mean, sd, start)


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
    return _prepare(family, sample, 2)[1][-1]


def _unpack(cls: type, theta, sample_unit: float, mean: float, sd: float) -> Distribution | None:
    """Parameters in data units of a search point on ``(w - mean) / sd``, w of x / u; None when infeasible."""
    try:
        location, scale = mean + sd * float(theta[0]), sd * math.exp(theta[1])
        return cls._from_gumbel(sample_unit, location, scale, *theta[2:])
    except (DomainError, OverflowError):
        return None


def _gumbel_profile_search(data: np.ndarray) -> list[tuple]:
    """Maximize the Gumbel likelihood of each row of the (K, n) array ``data``, over log(scale).

    For w_i = data - min(data) and scale s the location's maximum is
    min(data) - s*L(s), L(s) = log((1/n) * sum(exp(-w_i/s))), where the sum
    is at least its minimum's term 1, and the negative log-likelihood there
    is n*(log(s) + mean(w)/s + L(s) + 1) (Lawless 2003). Each search runs on
    log(s) from log(sqrt(6)/pi), the scale of the moment start, with step
    0.1, as a lane of one objective over the K rows of -w, written over
    ``data`` beside one workspace of its size, both reused for the fitted
    locations. Returns each search and its point (location, log(scale)).
    """
    if not len(data):
        return []
    minus_w, n = data, data.shape[1]
    low = minus_w.min(axis=1, keepdims=True)
    np.subtract(low, minus_w, minus_w)
    excess = (-np.add.reduce(minus_w, 1) / n).tolist()
    lanes = range(len(minus_w))
    terms, log_scales, scales = np.empty_like(minus_w), np.empty((len(lanes), 1)), np.empty((len(lanes), 1))
    log_column, column = log_scales[:, 0], scales[:, 0]

    def log_mean_exp(points):
        # L of each row, at its point's scale, which stays a numpy float: past the float range it is inf or 0.
        # The points go into a kept column, cheaper than numpy reading them as a nested list.
        for lane, (log_scale,) in zip(lanes, points):
            log_column[lane] = log_scale
        np.exp(log_scales, scales)
        totals = np.add.reduce(np.exp(np.divide(minus_w, scales, terms), terms), 1).tolist()
        return [math.log(total / n) for total in totals]

    def nll(points):
        lme = log_mean_exp(points)
        return [n * (t + e / s + m + 1.0) for (t,), e, s, m in zip(points, excess, column, lme)]

    found = _lockstep(nll, [_search([math.log(_UNIT_SD_SCALE)], 0.1) for _ in minus_w])
    lme = log_mean_exp([best.x for best in found])
    return [(best, [lo - s * m, best.x[0]]) for best, (lo,), s, m in zip(found, low.tolist(), column, lme)]


def _gev_objective(data: np.ndarray):
    """The GEV's negative log-likelihood of ``data`` at (location, log(scale), shape), summed, for one lane.

    With t = 1 + shape*(x - location)/scale it is n*log(scale) +
    (1 + 1/shape)*sum(log t) + sum(t**(-1/shape)) (Coles 2001, section
    3.3.2): one in-place pass for log t, formed as in the kernel, and one for
    the powers, into the rows of a (2, n) workspace, summed in one reduction.
    Shape 0 is the limit of the same form: there :func:`_log_t` gives log t 0
    and w = z = (x - location)/scale exactly, so the value is the Gumbel's
    n*log(scale) + sum(z) + sum(exp(-z)). A shape outside (-1, 1), or a value
    that is not finite (an observation off the support, or a scale past the
    float range), is inf. It takes ``[point]`` and returns ``[value]``, as the
    objective of a one-lane :func:`~evtkit.simplex._lockstep`. Call it under
    ``np.errstate(all="ignore")``.
    """
    n = data.size
    workspace = np.empty((2, n))
    shifted, powers = workspace
    offset, operands = np.empty(()), (np.empty(()), np.empty(()))  # the scalar operands, reused as 0-d arrays

    def nll(points):
        ((location, log_scale, shape),) = points
        if not _GEV_SHAPE_FLOOR < shape < _GEV_SHAPE_CEILING:
            return [math.inf]
        inverse_scale = np.exp(-log_scale)  # a numpy float: inf past the float range, never an exception
        offset[()] = location
        minus_w = _log_t(np.subtract(data, offset, shifted), inverse_scale, shape, shifted, powers, operands)
        # sum(w) is sum(log t) / shape, except below |shape| 2**-970 and at 0, where that keeps few bits or none.
        total_w = -float(minus_w.sum()) if -_TINY_SHAPE < shape < _TINY_SHAPE else None
        np.exp(minus_w, powers)
        total_log_t, total_power = np.add.reduce(workspace, 1).tolist()
        # Divided by the shape, not multiplied by 1/shape, which overflows below 1/max.
        total_w = total_log_t / shape if total_w is None else total_w
        value = n * log_scale + total_log_t + total_w + total_power
        return [value if math.isfinite(value) else math.inf]

    return nll


def fit_mle(family: str, sample: Sample) -> FitResult:
    """Fit ``family`` to ``sample`` by maximum likelihood, with one simplex search, a lane of ``simplex._lockstep``.

    Gumbel, Frechet and Weibull are a Gumbel fit to their standardized
    Gumbel values (x, log(x/u) and -log(x/u), u a power-of-two unit of x),
    mapped back by the family's class. The Gumbel's location has a closed
    form at each scale, so their search runs over log(scale) alone, started
    at the scale of :func:`initial_params`. The GEV search runs over
    location, log(scale) and shape, on the likelihood written as sums, from the
    fitted Gumbel with shape 0. The simplex never trades its best vertex for a worse
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
    location would leave the float range. It runs the driver of :func:`fit_all`
    on the family alone (the GEV with the Gumbel): the fit is the same, to the bit.

    A result with ``converged=False`` (rather than an exception) is returned
    when the search's budget of 10 000 iterations runs out before the simplex
    collapses, and, reporting the start, when the search found no point whose
    log-likelihood on the data is finite, or, with no GEV search, when over
    half of the values tie at the minimum, where the likelihood has no maximum.

    Raises
    ------
    DegenerateSampleError
        Fewer than three observations, or zero standard deviation.
    DomainError
        Unknown family, or data outside the family support. The GEV raises
        the Gumbel's error.
    """
    fit = _fit(sample, ("gumbel", "gev") if family == "gev" else (family,))[family]
    if isinstance(fit, Exception):
        raise fit
    return fit


def _finish(problem: tuple, best, theta, sample: Sample) -> FitResult:
    """The fit from ``problem``'s search: mapped back to data units, the GEV location repaired, or the start."""
    cls, sample_unit, mean, sd, init = problem
    params = _unpack(cls, theta, sample_unit, mean, sd) if math.isfinite(best.fun) else None
    loglik = -math.inf if params is None else log_likelihood(params, sample)
    if cls is GEV and params is not None and params.shape and not math.isfinite(loglik):
        # Rounding on the way back to data units put the finite end of the support onto an
        # observation (see fit_mle); near shape -1, undoing it can take hundreds of floats.
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
    return FitResult(params, loglik, converged, best.iterations, best.n_evaluations, init)


def _fit(sample: Sample, families: tuple) -> dict:
    """Each family's :class:`FitResult`, or the exception that stopped it, in the order of ``families``.

    The Gumbel-type families are lanes of one profile search, whose block is freed before the GEV's
    data is made. The GEV, which needs the Gumbel, starts from its fit at shape 0, or carries its error;
    its search problem is the Gumbel's, on the standardized values the sample rebuilds.
    """
    fits, prepared = dict.fromkeys(families), {}
    for family in (family for family in families if family != "gev"):
        try:
            prepared[family] = _prepare(family, sample)
        except (DomainError, DegenerateSampleError) as exc:
            fits[family] = exc
    # From here the search's block, which it writes over, is the one copy of the standardized rows.
    block = np.array([data for data, _ in prepared.values()])
    problems = {family: problem for family, (_, problem) in prepared.items()}
    del prepared
    with np.errstate(all="ignore"):
        found = _gumbel_profile_search(block)
    del block
    for (family, problem), (best, theta) in zip(problems.items(), found):
        fits[family] = _finish(problem, best, theta, sample)
    if "gev" in families:
        fits["gev"] = gumbel = fits["gumbel"]
        if isinstance(gumbel, FitResult):
            start, x = GEV(gumbel.params.location, gumbel.params.scale, 0.0), sample.sorted_values()
            if np.searchsorted(x, x[0], "right") > sample.n / 2:  # no maximum to search for (see fit_mle)
                fits["gev"] = FitResult(start, log_likelihood(start, sample), False, 0, 0, start)
                return fits
            _, sample_unit, mean, sd, _ = problems["gumbel"]
            location, scale = start.location / sample_unit, start.scale / sample_unit
            theta0 = [(location - mean) / sd, math.log(scale / sd), 0.0]
            objective = _gev_objective(sample.standardized()[3])
            with np.errstate(all="ignore"):
                (best,) = _lockstep(objective, [_search(theta0, [0.1 * _UNIT_SD_SCALE, 0.1, 0.1])])
            fits["gev"] = _finish((GEV, sample_unit, mean, sd, start), best, best.x, sample)
    return fits


def fit_all(sample: Sample) -> list[FitOutcome]:
    """Fit all four families, in the fixed family order, with the driver of :func:`fit_mle`.

    The Gumbel, Frechet and Weibull searches run as lanes of one profile
    objective, and the Gumbel fit is the shape-0 anchor of the GEV fit; each
    outcome is that of :func:`fit_mle` of its family, to the bit. Per-family
    failures (support violations, degenerate input) are captured in the
    returned entries instead of aborting the batch; the GEV records the Gumbel's.
    """
    fits = _fit(sample, FAMILIES).items()
    return [FitOutcome(f, error=str(fit)) if isinstance(fit, Exception) else FitOutcome(f, fit) for f, fit in fits]

"""Exact probability functions for the classical extreme value families.

Four families are provided: :class:`Gumbel` (type I), :class:`Frechet`
(type II) and :class:`Weibull` (the standard minimum-type form), both
two-parameter on x > 0, and the three-parameter :class:`GEV`. The GEV uses the
convention that a positive shape gives a heavy right tail (Frechet-like),
a negative shape a bounded upper tail (reversed Weibull), and shape zero
the Gumbel limit.

Every operation is a pure function of the parameter record and its
arguments, safe for concurrent use.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import ClassVar, Union, get_args

import numpy as np

from .errors import DomainError
from .sample import Sample, whole_number

__all__ = [
    "Gumbel",
    "Frechet",
    "Weibull",
    "GEV",
    "Distribution",
    "FAMILIES",
    "FAMILY_LABELS",
    "EULER_GAMMA",
    "PROB_FLOOR",
    "PROB_CEIL",
    "clamp_probability",
    "make_params",
    "params_to_dict",
    "params_from_dict",
    "params_from_sequence",
]

EULER_GAMMA = 0.5772156649015329

# Probabilities are clamped into [PROB_FLOOR, PROB_CEIL] before any logarithm.
PROB_FLOOR = 1e-300
PROB_CEIL = 1.0 - 1e-16


def clamp_probability(u):
    """Clamp probabilities away from 0 and 1 so logarithms stay finite."""
    return np.clip(u, PROB_FLOOR, PROB_CEIL)


class _EvdFamily:
    """Shared validation and array handling; subclasses implement the closed forms.

    A record stores every field as a float. Each must be finite, and those
    named in ``_positive`` must also be > 0. ``_GevForms`` and ``_LogGumbel``
    declare the fields of the two record shapes, (location, scale) and (shape, scale).

    Each family says once, for its density and its fit, how it is a Gumbel:
    ``_gumbel_values(x)`` is x, log x or -log x (+-inf off the support and
    at nan), which is Gumbel or GEV (Coles 2001, section
    3.1), and ``_from_gumbel(unit, location, scale[, shape])`` is the record
    of ``unit * x`` for the x whose Gumbel values have that Gumbel or GEV.
    ``_in_unit(unit)`` is the record of ``x / unit``, and ``_logarithmic``
    says whether the family's unit is the one for logarithms (see
    :func:`~evtkit.sample.binary_unit`). The one likelihood kernel, the
    static ``GEV.log_density``, is used by every ``_log_pdf``, and so by the
    reported log-likelihood of every fit; the fitter's searches minimize
    summed forms of the likelihood instead. It takes the scale as a
    logarithm and validates nothing.
    """

    family: ClassVar[str]
    _positive: ClassVar[tuple[str, ...]] = ("scale",)
    _logarithmic: ClassVar[bool] = False

    def __post_init__(self):
        for field in dataclasses.fields(self):
            name, value = field.name, float(getattr(self, field.name))
            if name in self._positive:
                if not (math.isfinite(value) and value > 0.0):
                    raise DomainError(f"{name} must be a positive finite number, got {value!r}")
            elif not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def _in_unit(self, unit: float):
        """The record of the values ``x / unit``: its location and scale divided by ``unit``."""
        names = [field.name for field in dataclasses.fields(self) if field.name in ("location", "scale")]
        return dataclasses.replace(self, **{name: getattr(self, name) / unit for name in names})

    def _evaluate(self, form, x):
        """``form(x)`` for ``x`` as a float array of at least one dimension; a float for a scalar ``x``.

        The one ``np.errstate(all="ignore")`` of every probability function: overflow
        to +-inf, underflow to 0 and nan are values, never warnings.
        """
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(all="ignore"):
            out = form(arr)
        return float(out[0]) if np.ndim(x) == 0 else out

    def cdf(self, x):
        """Cumulative distribution function; 0 below and 1 above the support."""
        return self._evaluate(self._cdf, x)

    def log_pdf(self, x):
        """Natural log of the density; -inf wherever the density is zero, at +-inf and at nan."""
        return self._evaluate(self._log_pdf, x)

    def pdf(self, x):
        """Probability density, evaluated in log space to avoid underflow; 0 at +-inf and at nan."""
        return self._evaluate(lambda arr: np.exp(self._log_pdf(arr)), x)

    def quantile(self, p):
        """Inverse cdf for p strictly inside (0, 1); a level beyond the float range is +-inf, with no warning.

        Raises
        ------
        DomainError
            If any p lies outside the open interval (0, 1).
        """
        arr = np.asarray(p, dtype=float)
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise DomainError("probability must lie strictly between 0 and 1")
        return self._evaluate(self._quantile, arr)

    def sample(self, n: int, seed: int) -> Sample:
        """Inverse-transform sample of size ``n`` from a seeded uniform stream.

        ``n`` and ``seed`` are whole numbers: ints, or floats with no fractional
        part. The same seed (>= 0) always produces the same values on a given
        platform. A draw beyond the float range is a DomainError naming the
        record and the seed.
        """
        n, seed = whole_number(n, "sample size"), whole_number(seed, "seed")
        if n < 1:
            raise DomainError("sample size must be at least 1")
        if seed < 0:
            raise DomainError(f"seed must be at least 0, got {seed}")
        u = clamp_probability(np.random.default_rng(seed).random(n))
        values = self._evaluate(self._quantile, u)
        if not np.all(np.isfinite(values)):
            raise DomainError(f"{self!r} with seed {seed} draws a value beyond the float range")
        return Sample(values)


# Below this |shape|, shape*z can be subnormal, where log1p(shape*z)/shape keeps few bits.
_TINY_SHAPE = 2.0**-970


def _gumbel_limit(shape, form, limit):
    """``form / shape``, a GEV form of u = shape*z over the shape, into ``limit``, its shape-0 limit
    from z, returned; ``limit`` is kept wherever |shape| < 2**-970 and the form is 0, subnormal or
    nan. log1p (of u >= -1) and expm1 keep 0, subnormals and nan and map a normal float to a normal
    float or +-inf, so that is where u is: the form keeps few bits there, and z is exact. It is also
    where log1p of u < -1 is nan. At shape 0 no 0/0 is computed. The mask is two comparisons of the
    form, one byte per value each, with no float array for |form|."""
    tiny = sys.float_info.min
    general = not -_TINY_SHAPE < shape < _TINY_SHAPE or (form >= tiny) | (form <= -tiny)
    return np.divide(form, shape, limit, where=general)


def _log_t(y, inverse_scale, shape, log_t, minus_w):
    """The GEV's log t = log1p(y * (shape*inverse_scale)) into ``log_t`` (which may be ``y``),
    and -w = log t / -shape into ``minus_w``, returned; z = y*inverse_scale and t = 1 + shape*z.
    Below |shape| 2**-970, shape 0 included, -w is -z wherever log t is not a normal float; -z is
    written first, so that log t goes straight into ``log_t``, with no array for shape*z."""
    factor = shape * inverse_scale
    if not -_TINY_SHAPE < shape < _TINY_SHAPE:
        return np.divide(np.log1p(np.multiply(y, factor, log_t), log_t), -shape, minus_w)
    minus_z = np.multiply(y, -inverse_scale, minus_w)
    return _gumbel_limit(-shape, np.log1p(np.multiply(y, factor, log_t), log_t), minus_z)


@dataclass(frozen=True)
class _GevForms(_EvdFamily):
    """The fields and closed forms of :class:`GEV`, which :class:`Gumbel` shares as its shape-0 case."""

    location: float
    scale: float

    def support(self) -> tuple[float, float]:
        """Open interval on which the density is positive."""
        if not self.shape:
            return (-np.inf, np.inf)
        edge = self.location - self.scale / self.shape
        if self.shape > 0:
            return (edge, np.inf)
        return (-np.inf, edge)

    def _cdf(self, x):
        # Clamping shape*z at -1 sends w to -inf (shape > 0) or +inf (shape < 0)
        # off the support, so the cdf saturates at 0 or 1 there. The form goes over
        # u and exp(-exp(-w)) over w: each new array of size n shows at n = 100 000.
        z = (x - self.location) / self.scale
        u = self.shape * z
        w = _gumbel_limit(self.shape, np.log1p(np.maximum(u, -1.0, out=u), u), z)
        np.exp(np.negative(w, out=w), out=w)
        return np.exp(np.negative(w, out=w), out=w)

    @staticmethod
    def log_density(x, location, log_scale, shape=0.0):
        """Log density; -inf off the support, where log1p(shape*z) is -inf or nan, at +-inf and at nan.

        At shape 0 it is the Gumbel's -log_scale - z - exp(-z).
        """
        # In place, in two arrays: at n = 100 000 a new temporary per operation
        # costs more than the arithmetic, as the heap is trimmed and its pages
        # re-faulted. At shape 0, lt is 0 and w is z, exactly. Each ufunc takes
        # its output by position, which parses faster than out=.
        a, b = np.empty(np.shape(x)), np.empty(np.shape(x))
        z = np.divide(np.subtract(x, location, a), np.exp(log_scale), a)
        _log_t(z, 1.0, shape, a, b)  # lt, -w
        np.subtract(a, b, a)  # lt + w
        np.exp(b, b)
        np.subtract(np.subtract(-log_scale, a, a), b, a)  # ((-log_scale) - (lt + w)) - exp(-w)
        # At lt = -inf, below it where lt is nan, and at x = +-inf or nan the value is nan; fmax makes it -inf.
        return np.fmax(a, -np.inf, a)

    def _log_pdf(self, x):
        return self.log_density(x, self.location, math.log(self.scale), self.shape)

    def _quantile(self, p):
        y = -np.log(-np.log(p))
        u = self.shape * y
        w = _gumbel_limit(self.shape, np.expm1(u, u), y)
        return np.add(np.multiply(w, self.scale, w), self.location, w)

    @classmethod
    def _gumbel_values(cls, x):
        return x


@dataclass(frozen=True)
class Gumbel(_GevForms):
    """Type I extreme value (Gumbel maximum) distribution, the GEV at shape 0.

    cdf: exp(-exp(-(x - location)/scale)) on the whole real line.
    """

    family: ClassVar[str] = "gumbel"
    shape: ClassVar[float] = 0.0

    @classmethod
    def _from_gumbel(cls, unit, location, scale):
        return cls(unit * location, unit * scale)


@dataclass(frozen=True)
class _LogGumbel(_EvdFamily):
    """Frechet (sign 1) and Weibull (sign -1) on x > 0: sign * log x is Gumbel(sign * log scale, 1/shape)."""

    shape: float
    scale: float

    location: ClassVar[float] = 0.0
    sign: ClassVar[float]
    _positive: ClassVar[tuple[str, ...]] = ("shape", "scale")
    _logarithmic: ClassVar[bool] = True

    def support(self) -> tuple[float, float]:
        """Open interval on which the density is positive."""
        return (0.0, np.inf)

    @classmethod
    def _gumbel_values(cls, x):
        return cls.sign * np.log(np.fmax(x, 0.0))

    def _log_pdf(self, x):
        # The Jacobian adds -sign * w; off the support (and at nan) w is +-inf and the sum may be nan, made -inf.
        w = self._gumbel_values(x)
        out = Gumbel.log_density(w, self.sign * math.log(self.scale), -math.log(self.shape))
        return np.fmax(np.subtract(out, self.sign * w, out), -np.inf, out)

    @classmethod
    def _from_gumbel(cls, unit, location, scale):
        return cls(shape=1.0 / scale, scale=unit * math.exp(cls.sign * location))


@dataclass(frozen=True)
class Frechet(_LogGumbel):
    """Type II extreme value (Frechet) distribution on x > 0, in its two-parameter form.

    cdf: exp(-(x/scale)^(-shape)) for x > 0, else 0.
    """

    family: ClassVar[str] = "frechet"
    sign: ClassVar[float] = 1.0

    def _cdf(self, x):
        # Off the support (and at nan) z is 0, where the cdf is exp(-inf) = 0.
        z = np.fmax(x, 0.0) / self.scale
        return np.exp(-np.power(z, -self.shape))

    def _quantile(self, p):
        return self.scale * np.power(-np.log(p), -1.0 / self.shape)


@dataclass(frozen=True)
class Weibull(_LogGumbel):
    """Standard (minimum-type) two-parameter Weibull distribution on x > 0.

    cdf: 1 - exp(-(x/scale)^shape). The reversed maximum-type Weibull is
    available as a GEV with negative shape.
    """

    family: ClassVar[str] = "weibull"
    sign: ClassVar[float] = -1.0

    def _cdf(self, x):
        # Off the support (and at nan) z is 0, where the cdf is 0.
        z = np.fmax(x, 0.0) / self.scale
        return -np.expm1(-np.power(z, self.shape))

    def _quantile(self, p):
        return self.scale * np.power(-np.log1p(-p), 1.0 / self.shape)


@dataclass(frozen=True)
class GEV(_GevForms):
    """Generalized extreme value distribution.

    cdf: exp(-exp(-w)) with z = (x - location)/scale and w = log1p(shape*z)/shape
    on shape*z > -1; shape > 0 gives the heavy-tailed (Frechet) regime and
    shape < 0 a bounded upper tail. Shape 0 is the Gumbel case of the same
    formula, where w is its limit z; log1p and expm1 keep every shape near 0
    free of cancellation.
    """

    shape: float

    family: ClassVar[str] = "gev"

    @classmethod
    def _from_gumbel(cls, unit, location, scale, shape=0.0):
        return cls(unit * location, unit * scale, shape)


Distribution = Union[Gumbel, Frechet, Weibull, GEV]

_FAMILY_CLASSES = {cls.family: cls for cls in get_args(Distribution)}
FAMILIES = tuple(_FAMILY_CLASSES)
FAMILY_LABELS = {family: cls.__name__ for family, cls in _FAMILY_CLASSES.items()}


def _family_class(family: str):
    try:
        return _FAMILY_CLASSES[family]
    except KeyError:
        raise DomainError(f"unknown family {family!r}; expected one of {FAMILIES}") from None


def _fields_error(family: str, got) -> DomainError:
    names = [field.name for field in dataclasses.fields(_FAMILY_CLASSES[family])]
    return DomainError(f"{family} takes {len(names)} parameters ({', '.join(names)}), got {got}")


def make_params(family: str, **kwargs) -> Distribution:
    """Build ``family``'s record from exactly its fields as keywords; a missing or unknown one is a DomainError."""
    cls = _family_class(family)
    if kwargs.keys() != {field.name for field in dataclasses.fields(cls)}:
        raise _fields_error(family, ", ".join(kwargs) or "none")
    return cls(**kwargs)


def params_to_dict(dist: Distribution) -> dict:
    """Serialize a parameter record to a plain dict (family tag included)."""
    return {"family": dist.family, **dataclasses.asdict(dist)}


def params_from_dict(data: dict) -> Distribution:
    """Inverse of :func:`params_to_dict`: ``family`` and exactly the record's fields, as :func:`make_params` takes.

    A Frechet's ``location``, in reports written before the Frechet lost it, is a DomainError until dropped.
    """
    payload = dict(data)
    try:
        family = payload.pop("family")
    except KeyError:
        raise DomainError("parameter record is missing the 'family' tag") from None
    return make_params(family, **payload)


def params_from_sequence(family: str, values) -> Distribution:
    """Build ``family``'s record from a flat sequence of exactly its fields in order; any other count is a DomainError.

    gumbel (location, scale); frechet and weibull (shape, scale); gev (location, scale, shape).
    """
    cls = _family_class(family)
    values = [float(v) for v in values]
    if len(values) != len(dataclasses.fields(cls)):
        raise _fields_error(family, len(values))
    return cls(*values)

"""Exact probability functions for the classical extreme value families.

Four families are provided: :class:`Gumbel` (type I), :class:`Frechet`
(type II), :class:`Weibull` (the standard minimum-type two-parameter form
on x > 0), and the three-parameter :class:`GEV`. The GEV uses the
convention that a positive shape gives a heavy right tail (Frechet-like),
a negative shape a bounded upper tail (reversed Weibull), and shape zero
the Gumbel limit.

Every operation is a pure function of the parameter record and its
arguments, safe for concurrent use.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import DomainError
from .sample import Sample

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

FAMILIES = ("gumbel", "frechet", "weibull", "gev")
FAMILY_LABELS = {"gumbel": "Gumbel", "frechet": "Frechet", "weibull": "Weibull", "gev": "GEV"}


def clamp_probability(u):
    """Clamp probabilities away from 0 and 1 so logarithms stay finite."""
    return np.clip(u, PROB_FLOOR, PROB_CEIL)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not (np.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _set(obj, **fields):
    for key, val in fields.items():
        object.__setattr__(obj, key, val)


class _EvdFamily:
    """Shared array handling; subclasses implement the closed forms.

    A family's static ``log_density`` is its one likelihood formula, used by
    ``_log_pdf`` and summed by the fitter. It takes scales (and Frechet and
    Weibull shapes) as logarithms and validates nothing.
    """

    family: ClassVar[str]

    def support(self) -> tuple[float, float]:
        """Open interval on which the density is positive."""
        raise NotImplementedError

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _log_pdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, x):
        """Cumulative distribution function; 0 below and 1 above the support."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            out = self._cdf(arr)
        return _match_shape(out, x)

    def log_pdf(self, x):
        """Natural log of the density; -inf wherever the density is zero."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            out = self._log_pdf(arr)
        return _match_shape(out, x)

    def pdf(self, x):
        """Probability density, evaluated in log space to avoid underflow."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            out = np.exp(self._log_pdf(arr))
        return _match_shape(out, x)

    def quantile(self, p):
        """Inverse cdf for p strictly inside (0, 1).

        Raises
        ------
        DomainError
            If any p lies outside the open interval (0, 1).
        """
        arr = np.atleast_1d(np.asarray(p, dtype=float))
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise DomainError("probability must lie strictly between 0 and 1")
        out = self._quantile(arr)
        return _match_shape(out, p)

    def sample(self, n: int, seed: int) -> Sample:
        """Inverse-transform sample of size ``n`` from a seeded uniform stream.

        The same seed always produces the same values on a given platform.
        """
        n = int(n)
        if n < 1:
            raise DomainError("sample size must be at least 1")
        rng = np.random.default_rng(seed)
        u = clamp_probability(rng.random(n))
        return Sample(self._quantile(u))


def _match_shape(out: np.ndarray, like):
    if np.ndim(like) == 0:
        return float(out[0])
    return out


@dataclass(frozen=True)
class Gumbel(_EvdFamily):
    """Type I extreme value (Gumbel maximum) distribution.

    cdf: exp(-exp(-(x - location)/scale)) on the whole real line.
    """

    location: float
    scale: float

    family: ClassVar[str] = "gumbel"

    def __post_init__(self):
        _set(
            self,
            location=_check_finite("location", self.location),
            scale=_check_positive("scale", self.scale),
        )

    def support(self) -> tuple[float, float]:
        return (-np.inf, np.inf)

    def _cdf(self, x):
        return np.exp(-np.exp(-(x - self.location) / self.scale))

    @staticmethod
    def log_density(x, location, log_scale):
        z = (x - location) / np.exp(log_scale)
        return -log_scale - z - np.exp(-z)

    def _log_pdf(self, x):
        return self.log_density(x, self.location, math.log(self.scale))

    def _quantile(self, p):
        return self.location - self.scale * np.log(-np.log(p))


@dataclass(frozen=True)
class Frechet(_EvdFamily):
    """Type II extreme value (Frechet) distribution with lower endpoint ``location``.

    cdf: exp(-((x - location)/scale)^(-shape)) for x > location, else 0.
    The two-parameter form fixes location at 0.
    """

    shape: float
    scale: float
    location: float = 0.0

    family: ClassVar[str] = "frechet"

    def __post_init__(self):
        _set(
            self,
            shape=_check_positive("shape", self.shape),
            scale=_check_positive("scale", self.scale),
            location=_check_finite("location", self.location),
        )

    def support(self) -> tuple[float, float]:
        return (self.location, np.inf)

    def _cdf(self, x):
        out = np.zeros_like(x)
        inside = x > self.location
        z = (x[inside] - self.location) / self.scale
        out[inside] = np.exp(-np.power(z, -self.shape))
        return out

    @staticmethod
    def log_density(log_x, log_shape, log_scale):
        """Log density with lower endpoint 0, at ``exp(log_x)``."""
        shape = np.exp(log_shape)
        lz = log_x - log_scale
        return log_shape - log_scale - (1.0 + shape) * lz - np.exp(-shape * lz)

    def _log_pdf(self, x):
        out = np.full_like(x, -np.inf)
        inside = x > self.location
        out[inside] = self.log_density(
            np.log(x[inside] - self.location), math.log(self.shape), math.log(self.scale)
        )
        return out

    def _quantile(self, p):
        return self.location + self.scale * np.power(-np.log(p), -1.0 / self.shape)


@dataclass(frozen=True)
class Weibull(_EvdFamily):
    """Standard (minimum-type) two-parameter Weibull distribution on x > 0.

    cdf: 1 - exp(-(x/scale)^shape). The reversed maximum-type Weibull is
    available as a GEV with negative shape.
    """

    shape: float
    scale: float

    family: ClassVar[str] = "weibull"

    def __post_init__(self):
        _set(
            self,
            shape=_check_positive("shape", self.shape),
            scale=_check_positive("scale", self.scale),
        )

    def support(self) -> tuple[float, float]:
        return (0.0, np.inf)

    def _cdf(self, x):
        out = np.zeros_like(x)
        inside = x > 0.0
        z = x[inside] / self.scale
        out[inside] = -np.expm1(-np.power(z, self.shape))
        return out

    @staticmethod
    def log_density(log_x, log_shape, log_scale):
        """Log density at ``exp(log_x)``."""
        shape = np.exp(log_shape)
        lz = log_x - log_scale
        return log_shape - log_scale + (shape - 1.0) * lz - np.exp(shape * lz)

    def _log_pdf(self, x):
        out = np.full_like(x, -np.inf)
        inside = x > 0.0
        out[inside] = self.log_density(np.log(x[inside]), math.log(self.shape), math.log(self.scale))
        return out

    def _quantile(self, p):
        return self.scale * np.power(-np.log1p(-p), 1.0 / self.shape)


@dataclass(frozen=True)
class GEV(_EvdFamily):
    """Generalized extreme value distribution.

    cdf: exp(-exp(-w)) with z = (x - location)/scale and w = log1p(shape*z)/shape
    on shape*z > -1; shape > 0 gives the heavy-tailed (Frechet) regime and
    shape < 0 a bounded upper tail. Shape 0 is the Gumbel case of the same
    formula, where w is its limit z; log1p and expm1 keep every shape near 0
    free of cancellation.
    """

    location: float
    scale: float
    shape: float

    family: ClassVar[str] = "gev"

    def __post_init__(self):
        _set(
            self,
            location=_check_finite("location", self.location),
            scale=_check_positive("scale", self.scale),
            shape=_check_finite("shape", self.shape),
        )

    def support(self) -> tuple[float, float]:
        if not self.shape:
            return (-np.inf, np.inf)
        edge = self.location - self.scale / self.shape
        if self.shape > 0:
            return (edge, np.inf)
        return (-np.inf, edge)

    def _cdf(self, x):
        # Clamping shape*z at -1 sends w to -inf (shape > 0) or +inf (shape < 0)
        # off the support, so the cdf saturates at 0 or 1 there.
        z = (x - self.location) / self.scale
        w = np.log1p(np.maximum(self.shape * z, -1.0)) / self.shape if self.shape else z
        return np.exp(-np.exp(-w))

    @staticmethod
    def log_density(x, location, log_scale, shape):
        """Log density; -inf off the support, where log1p(shape*z) is -inf or nan."""
        # w starts as z, its shape-0 limit; one name keeps one large temporary
        # fewer alive, which shows in the fitter at n = 100 000.
        w = (x - location) / np.exp(log_scale)
        lt = np.log1p(shape * w)
        if shape:
            w = lt / shape
        return np.where(lt > -np.inf, -log_scale - (lt + w) - np.exp(-w), -np.inf)

    def _log_pdf(self, x):
        return self.log_density(x, self.location, math.log(self.scale), self.shape)

    def _quantile(self, p):
        y = -np.log(-np.log(p))
        if self.shape:
            y = np.expm1(self.shape * y) / self.shape
        return self.location + self.scale * y


Distribution = Union[Gumbel, Frechet, Weibull, GEV]

_FAMILY_CLASSES = {"gumbel": Gumbel, "frechet": Frechet, "weibull": Weibull, "gev": GEV}


def _family_class(family: str):
    try:
        return _FAMILY_CLASSES[family]
    except KeyError:
        raise DomainError(f"unknown family {family!r}; expected one of {FAMILIES}") from None


def make_params(family: str, **kwargs) -> Distribution:
    """Build a parameter record for ``family`` from keyword arguments."""
    return _family_class(family)(**kwargs)


def params_to_dict(dist: Distribution) -> dict:
    """Serialize a parameter record to a plain dict (family tag included)."""
    out = {"family": dist.family}
    for field in dataclasses.fields(dist):
        out[field.name] = getattr(dist, field.name)
    return out


def params_from_dict(data: dict) -> Distribution:
    """Inverse of :func:`params_to_dict`."""
    payload = dict(data)
    try:
        family = payload.pop("family")
    except KeyError:
        raise DomainError("parameter record is missing the 'family' tag") from None
    return make_params(family, **payload)


def params_from_sequence(family: str, values) -> Distribution:
    """Build a parameter record from a flat value sequence.

    The order is that of the record's fields: gumbel (location, scale);
    frechet (shape, scale[, location]); weibull (shape, scale); gev
    (location, scale, shape). Fields with a default may be left out.
    """
    cls = _family_class(family)
    fields = dataclasses.fields(cls)
    names = [field.name for field in fields]
    values = [float(v) for v in values]
    required = sum(field.default is dataclasses.MISSING for field in fields)
    if not (required <= len(values) <= len(names)):
        raise DomainError(
            f"{family} takes {required} parameters ({', '.join(names[:required])}), got {len(values)}"
        )
    return cls(**dict(zip(names, values)))

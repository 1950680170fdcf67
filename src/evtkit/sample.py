"""Container for a block-maxima (e.g. annual-maximum) series."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class Sample:
    """An ordered series of block maxima.

    Values keep their original order; a stable ascending view is available
    through :meth:`sorted_values`. All values must be finite and there must
    be at least one.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).ravel().copy()
        if arr.size < 1:
            raise DomainError("sample must contain at least one value")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample values must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def sorted_values(self) -> np.ndarray:
        """Ascending copy of the values (stable sort); sorted once, then kept on the sample, read-only."""
        return self._keep("_sorted", lambda: np.sort(self.values, kind="stable"))

    def _keep(self, name: str, make) -> np.ndarray:
        """The array ``make()``, made on the first call for ``name`` and kept read-only on the sample."""
        kept = self.__dict__.get(name)
        if kept is None:
            kept = make()
            kept.flags.writeable = False
            object.__setattr__(self, name, kept)
        return kept

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Sample(n={self.n})"


def whole_number(value, name: str) -> int:
    """``value`` as an int; a DomainError naming ``name`` and the value when it is not a whole number."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # int() of None, of nan, of inf
        pass
    raise DomainError(f"{name} {value!r} is not a whole number")


def binary_unit(values: np.ndarray, *, logarithmic: bool = False) -> float:
    """The power-of-two unit u of ``values``: 2**(e-1) for the ``frexp`` exponent e of the largest magnitude.

    ``values / u`` is exact and lies in (-2, 2), and it is the same array of
    bits for ``values * 2**k`` as long as no value leaves the normal range.
    With ``logarithmic``, for positive values whose logarithms are taken, u
    is lowered as far as needed to keep the smallest value normal at u, but
    never so far that the largest would pass the float range. ``values / u``
    is then never 0 or inf, and it is all normal floats whenever the largest
    value is less than 2**2045 times the smallest.
    """
    low, high = float(values.min()), float(values.max())
    exponent = math.frexp(max(high, -low))[1] - 1
    if logarithmic:
        lowest = math.frexp(low)[1] - 1
        exponent = max(min(exponent, lowest + 1022), exponent - 1023)
    return 2.0**exponent


def standardize(values: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """The :func:`binary_unit` u of ``values``, and at u their mean, n-1 sd and ``(values - mean) / sd``.

    ``values / u`` is exact, and nothing taken at u passes the float range.
    ``u * mean`` and ``u * sd`` are the data-unit values, bit for bit, and as
    Python floats are inf past the float range, with no warning. Needs two values.
    """
    unit = binary_unit(values)
    deviations = values / unit
    # The rounded mean can leave [min, max]; kept inside, equal values have sd 0.
    mean = float(deviations.sum()) / deviations.size
    mean = min(max(mean, float(deviations.min())), float(deviations.max()))
    deviations -= mean
    largest = float(np.max(np.abs(deviations)))
    scaled = deviations / largest if largest > 0.0 else deviations
    sd = largest * math.sqrt(float(np.dot(scaled, scaled)) / (values.size - 1))
    deviations /= sd or 1.0  # sd is 0 only when every deviation is
    return unit, mean, sd, deviations

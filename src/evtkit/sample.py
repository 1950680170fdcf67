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
        """Ascending copy of the values (stable sort); sorted once, then shared read-only."""
        ordered = self.__dict__.get("_sorted")
        if ordered is None:
            ordered = np.sort(self.values, kind="stable")
            ordered.flags.writeable = False
            object.__setattr__(self, "_sorted", ordered)
        return ordered

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Sample(n={self.n})"


def scaled_deviations(values: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Mean, n-1 standard deviation, and deviations from the mean over their largest magnitude.

    Only deviations scaled into [-1, 1] are squared, so the spread neither
    overflows nor underflows at data scales such as 1e300 or 1e-300. The mean
    is finite whenever every value is: a sum past the float range is taken
    again over the values times 2**-k, with 2**k >= n, and scaled back.
    Needs two values.
    """
    with np.errstate(over="ignore"):
        total = float(values.sum())  # np.mean's sum, without its Python overhead
    if math.isfinite(total):
        mean = total / values.size
    else:
        scale = 2.0 ** math.ceil(math.log2(values.size))
        mean = float((values / scale).sum()) / values.size * scale
    deviations = values - mean
    largest = float(np.max(np.abs(deviations)))
    scaled = deviations / largest if largest > 0.0 else deviations
    return mean, largest * math.sqrt(float(np.dot(scaled, scaled)) / (values.size - 1)), scaled

"""Seeded inputs for the benchmark workloads.

Everything here uses numpy alone, never evtkit, so a change to the program
cannot change what the benchmark feeds it. The same seed always gives the
same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The repository fixture was written by
#   evtkit simulate --dist gev --params 92.41,30.85,0.06 --n 51 --seed 22
# and fixture_values(FIXTURE_SEED) reproduces it bit for bit.
FIXTURE_PARAMS = (92.41, 30.85, 0.06)  # GEV location, scale, shape
FIXTURE_N = 51
FIXTURE_SEED = 22

STATIONS_COUNT = 200
STATIONS_N = (20, 150)
STATIONS_SHAPE = (-0.3, 0.3)
STATIONS_LOCATION = (0.1, 1e4)  # drawn log-uniform
STATIONS_CV = (0.1, 0.5)

LONG_RECORD_N = 100_000

UNIT_EXPONENTS = tuple(range(-9, 10))

# Separate random streams, so that one workload's draws never shift another's.
_STATIONS_STREAM, _LONG_RECORD_STREAM, _UNITS_STREAM = 1, 2, 3


@dataclass(frozen=True, eq=False)
class Series:
    """One block-maxima series and the GEV (location, scale, shape) it was drawn from."""

    label: str
    params: tuple[float, float, float]
    values: np.ndarray


def gev_quantile(p, location: float, scale: float, shape: float):
    """GEV inverse cdf, in the same floating-point form evtkit's sampler uses."""
    if abs(shape) < 1e-8:
        return location - scale * np.log(-np.log(p))
    return location + scale / shape * (np.power(-np.log(p), -shape) - 1.0)


def gev_draws(rng: np.random.Generator, n: int, params) -> np.ndarray:
    """Inverse-transform draws, with uniforms clamped as evtkit clamps them."""
    u = np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)
    return gev_quantile(u, *params)


def gev_scale_for_cv(location: float, shape: float, cv: float) -> float:
    """Scale at which a GEV with this location and shape has coefficient of variation ``cv``."""
    if abs(shape) < 1e-6:
        mean_per_scale, sd_per_scale = 0.5772156649015329, math.pi / math.sqrt(6.0)
    else:
        g1, g2 = math.gamma(1.0 - shape), math.gamma(1.0 - 2.0 * shape)
        mean_per_scale = (g1 - 1.0) / shape
        sd_per_scale = math.sqrt(g2 - g1 * g1) / abs(shape)
    return cv * location / (sd_per_scale - cv * mean_per_scale)


def fixture_values(seed: int) -> np.ndarray:
    """A 51-value series drawn by the fixture's recipe from ``seed``."""
    return gev_draws(np.random.default_rng(seed), FIXTURE_N, FIXTURE_PARAMS)


def stations(seed: int, count: int = STATIONS_COUNT) -> list[Series]:
    """``count`` short records with varied length, shape, location and spread.

    Some records dip to non-positive values, so the Frechet and Weibull fits
    of those records take the per-family error path.
    """
    rng = np.random.default_rng([seed, _STATIONS_STREAM])
    out = []
    for i in range(count):
        n = int(rng.integers(STATIONS_N[0], STATIONS_N[1] + 1))
        shape = float(rng.uniform(*STATIONS_SHAPE))
        location = math.exp(rng.uniform(*np.log(STATIONS_LOCATION)))
        cv = float(rng.uniform(*STATIONS_CV))
        params = (location, gev_scale_for_cv(location, shape, cv), shape)
        out.append(Series(f"station{i:03d}", params, gev_draws(rng, n, params)))
    return out


def long_record(seed: int, n: int = LONG_RECORD_N) -> Series:
    """One long record drawn from the fixture's GEV."""
    rng = np.random.default_rng([seed, _LONG_RECORD_STREAM])
    return Series("long_record", FIXTURE_PARAMS, gev_draws(rng, n, FIXTURE_PARAMS))


def unit_factors(seed: int) -> list[int]:
    """The exponents k of the factors 10**k, in a seeded order.

    The units workload rescales one fixed series, the repository fixture, so
    every factor in -9..9 always runs; the seed only sets the order. Drawing
    a fresh base series per seed instead moves the number of unconverged
    fits between 2 and 5 of 76 and the sweep time between 8 s and 19 s,
    which would swamp any bound on the sweep time.
    """
    order = np.random.default_rng([seed, _UNITS_STREAM]).permutation(len(UNIT_EXPONENTS))
    return [UNIT_EXPONENTS[i] for i in order]


def write_values_csv(path, values) -> Path:
    """One value per line, each written with full precision."""
    path = Path(path)
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n", encoding="utf-8")
    return path

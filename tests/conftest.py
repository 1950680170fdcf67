"""Shared fixtures: reference parameter sets and independent oracles."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evtkit
from evtkit import Frechet, GEV, Gumbel, Weibull

# Fitted annual-maximum rainfall parameter sets (mm) used as shared fixtures
# across the suite; the matching sample had n = 51, mean 112.09, sd 41.07.
GUMBEL_MM = Gumbel(location=93.61, scale=32.02)
FRECHET_MM = Frechet(shape=3.37, scale=88.16)
WEIBULL_MM = Weibull(shape=3.34, scale=122.27)
GEV_MM = GEV(location=92.41, scale=30.85, shape=0.06)

RAIN_N = 51
RAIN_MEAN = 112.09
RAIN_SD = 41.07

ALL_MM = (GUMBEL_MM, FRECHET_MM, WEIBULL_MM, GEV_MM)


@pytest.fixture(params=ALL_MM, ids=lambda d: d.family)
def reference_dist(request):
    return request.param


def bisect_quantile(dist, p, tol=1e-12, max_iter=200):
    """Invert dist.cdf by bisection; independent of the closed-form quantile."""
    lo, hi = dist.support()
    if not np.isfinite(lo):
        lo = dist.location if hasattr(dist, "location") else 0.0
        step = 1.0
        while dist.cdf(lo) > p:
            lo -= step
            step *= 2.0
    if not np.isfinite(hi):
        hi = lo + 1.0
        step = 1.0
        while dist.cdf(hi) < p:
            hi += step
            step *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if dist.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def empirical_cdf_sup_distance(values, dist):
    """Kolmogorov-style sup distance between the empirical cdf and dist.cdf."""
    x = np.sort(values)
    n = x.size
    f = np.atleast_1d(dist.cdf(x))
    upper = np.max(np.abs(np.arange(1, n + 1) / n - f))
    lower = np.max(np.abs(np.arange(0, n) / n - f))
    return max(upper, lower)


def strict_json(text):
    """``text`` parsed as strict JSON: a ValueError on ``Infinity``, ``-Infinity`` or ``NaN``."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def run_python(*args, stdout=subprocess.PIPE, **env_changes):
    """``python`` with ``args`` in a child process, with numpy's default warning filters.

    Each keyword sets that environment variable in the child, or with ``None`` removes it.
    """
    # The child imports the evtkit this process imported, installed or not.
    src = str(Path(evtkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env = {name: value for name, value in {**env, **env_changes}.items() if value is not None}
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)

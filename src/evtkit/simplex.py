"""Derivative-free Nelder-Mead simplex minimization.

Plain reflection/expansion/contraction/shrink scheme. Objective values of
+inf (or NaN, treated as +inf) mark infeasible points and are handled as
worst-vertex, so hard constraint violations simply repel the simplex.

The bookkeeping runs on Python floats: with at most 4 vertices of 3
coordinates, numpy's fixed cost per call would dominate the arithmetic.
The order of each floating-point operation is part of the contract (the
centroid is summed in value order, then divided): it fixes every fit to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import add
from typing import Callable

import numpy as np

from .errors import DomainError

_REFLECT = 1.0
_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5
# Converged when the vertex values and every coordinate agree to within this.
_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fun: float
    converged: bool
    iterations: int
    n_evaluations: int


def nelder_mead(
    func: Callable[[np.ndarray], float],
    x0,
    initial_steps=0.1,
    max_iterations: int = 10_000,
) -> SimplexResult:
    """Minimize ``func`` starting from ``x0``.

    Converged when the spread of the vertex values and the spread of every
    coordinate over the vertices are below 1e-8.

    Parameters
    ----------
    func : callable
        Objective taking a fresh 1-d float64 coordinate array, returning a float.
    x0 : array_like
        Finite starting point; becomes the first vertex of the initial simplex.
    initial_steps : float or array_like
        Per-coordinate offsets used to build the other vertices.
    max_iterations : int
        Hard cap on simplex steps.

    Returns
    -------
    SimplexResult
        Best vertex found, its value, convergence flag, and counters.

    Raises
    ------
    DomainError
        Non-finite ``x0``; steps that are zero, non-finite, or neither a
        scalar nor one per coordinate.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    ndim = x0.size
    try:
        steps = np.broadcast_to(np.asarray(initial_steps, dtype=float), (ndim,))
    except ValueError:
        raise DomainError(f"initial simplex steps must be a scalar or one per coordinate ({ndim})") from None
    if not np.all(np.isfinite(steps)) or np.any(steps == 0.0):
        raise DomainError("initial simplex steps must be finite and nonzero")
    if not np.all(np.isfinite(x0)):
        raise DomainError("starting point must be finite")

    n_evaluations = 0

    def evaluate(x: list[float]) -> float:
        nonlocal n_evaluations
        n_evaluations += 1
        value = float(func(np.array(x)))
        return math.inf if math.isnan(value) else value

    start = x0.tolist()
    vertices = [start] + [
        start[:i] + [start[i] + step] + start[i + 1 :] for i, step in enumerate(steps.tolist())
    ]
    values = [evaluate(v) for v in vertices]

    converged = False
    iterations = 0
    while True:
        order = sorted(range(ndim + 1), key=values.__getitem__)  # stable, as argsort's
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]

        # The widest pair of a coordinate rounds to its max - min; NaN fails, as in numpy.
        if values[-1] - values[0] < _TOLERANCE and all(
            abs(a - b) < _TOLERANCE for col in zip(*vertices) for a, b in combinations(col, 2)
        ):
            converged = True
            break
        if iterations >= max_iterations:
            break
        iterations += 1

        centroid = [reduce(add, col) / ndim for col in zip(*vertices[:-1])]
        reflected = [c + _REFLECT * (c - w) for c, w in zip(centroid, vertices[-1])]
        f_reflected = evaluate(reflected)

        if f_reflected < values[0]:
            expanded = [c + _EXPAND * (c - w) for c, w in zip(centroid, vertices[-1])]
            f_expanded = evaluate(expanded)
            if f_expanded < f_reflected:
                vertices[-1], values[-1] = expanded, f_expanded
            else:
                vertices[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            vertices[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-1]:
            contracted = [c + _CONTRACT * (r - c) for c, r in zip(centroid, reflected)]
            f_contracted = evaluate(contracted)
            if f_contracted <= f_reflected:
                vertices[-1], values[-1] = contracted, f_contracted
            else:
                _shrink(vertices, values, evaluate)
        else:
            contracted = [c - _CONTRACT * (c - w) for c, w in zip(centroid, vertices[-1])]
            f_contracted = evaluate(contracted)
            if f_contracted < values[-1]:
                vertices[-1], values[-1] = contracted, f_contracted
            else:
                _shrink(vertices, values, evaluate)

    # The vertices were just sorted, so the first is the first minimum.
    return SimplexResult(
        x=np.array(vertices[0]),
        fun=values[0],
        converged=converged,
        iterations=iterations,
        n_evaluations=n_evaluations,
    )


def _shrink(vertices: list[list[float]], values: list[float], evaluate) -> None:
    for i in range(1, len(vertices)):
        vertices[i] = [b + _SHRINK * (v - b) for b, v in zip(vertices[0], vertices[i])]
        values[i] = evaluate(vertices[i])

"""Derivative-free Nelder-Mead simplex minimization.

Plain reflection/expansion/contraction/shrink scheme. Objective values of
+inf (or NaN, treated as +inf) mark infeasible points and are handled as
worst-vertex, so hard constraint violations simply repel the simplex.

The search is one generator, :func:`_search`: it yields each point and
receives that point's value. :func:`_lockstep` is the one loop that sends
values: it drives K searches in fixed lanes, with one call of a K-point
objective per step, until the last search ends, and :func:`nelder_mead` is
that loop with one lane (Nelder & Mead 1965; Lagarias et al. 1998). A lane
is its search driven alone, to the bit.

The simplex is one list of ``(value, vertex)`` pairs, each vertex a list
of Python floats: with at most 4 vertices of 3 coordinates, numpy's fixed
cost per call would dominate the arithmetic. Every point's value makes
such a pair, and each iteration starts with a stable sort of the list by
value, so ties keep their order. The order of each floating-point
operation is part of the contract (the centroid is summed in value order,
then divided; a shrink evaluates the vertices in that order): it fixes
every fit to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter
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
    (result,) = _lockstep(lambda points: [func(np.array(points[0]))], [_search(x0, initial_steps, max_iterations)])
    return result


def _search(x0, initial_steps=0.1, max_iterations: int = 10_000):
    """The search of :func:`nelder_mead` as a generator: it yields each point, a list of floats,
    receives its value by ``send``, and returns the :class:`SimplexResult`. Its
    :class:`DomainError` comes before the first point."""
    # Checked on lists: numpy's all and any cost microseconds each, a share of a short search.
    start = np.asarray(x0, dtype=float).ravel().tolist()
    ndim = len(start)
    steps = np.asarray(initial_steps, dtype=float)
    if steps.ndim > 1 or steps.size not in (1, ndim):
        raise DomainError(f"initial simplex steps must be a scalar or one per coordinate ({ndim})")
    steps = steps.ravel().tolist() * (ndim if steps.size == 1 else 1)
    if not all(map(math.isfinite, steps)) or 0.0 in steps:
        raise DomainError("initial simplex steps must be finite and nonzero")
    if not all(map(math.isfinite, start)):
        raise DomainError("starting point must be finite")

    n_evaluations = 0

    def pair(value, x: list[float]) -> tuple[float, list[float]]:
        nonlocal n_evaluations
        n_evaluations += 1
        value = float(value)
        return (math.inf if math.isnan(value) else value), x

    simplex = []
    for x in [start] + [start[:i] + [start[i] + step] + start[i + 1 :] for i, step in enumerate(steps)]:
        simplex.append(pair((yield x), x))

    converged = False
    iterations = 0
    while True:
        simplex.sort(key=itemgetter(0))  # stable, as argsort(kind="stable")
        (f_best, best), (f_worst, worst) = simplex[0], simplex[-1]

        # Rounding is monotone, so the widest pair of a coordinate rounds to its
        # max - min; a coordinate holding NaN fails, as in numpy.
        if f_worst - f_best < _TOLERANCE and all(
            max(col) - min(col) < _TOLERANCE and not any(map(math.isnan, col))
            for col in zip(*(x for _, x in simplex))
        ):
            converged = True
            break
        if iterations >= max_iterations:
            break
        iterations += 1

        centroid = [reduce(add, col) / ndim for col in zip(*(x for _, x in simplex[:-1]))]
        x = [c + _REFLECT * (c - w) for c, w in zip(centroid, worst)]
        reflected = pair((yield x), x)

        if reflected[0] < f_best:
            x = [c + _EXPAND * (c - w) for c, w in zip(centroid, worst)]
            expanded = pair((yield x), x)
            simplex[-1] = expanded if expanded[0] < reflected[0] else reflected
        elif reflected[0] < simplex[-2][0]:
            simplex[-1] = reflected
        else:
            # Contract toward the reflected point when it beats the worst vertex
            # (outside), else toward the worst vertex (inside); c + 0.5 * (w - c)
            # is the same float as c - 0.5 * (c - w), as negation is exact.
            toward = reflected[1] if reflected[0] < f_worst else worst
            x = [c + _CONTRACT * (t - c) for c, t in zip(centroid, toward)]
            contracted = pair((yield x), x)
            if contracted[0] < f_worst and contracted[0] <= reflected[0]:
                simplex[-1] = contracted
            else:
                for i, (_, vertex) in enumerate(simplex[1:], 1):
                    x = [b + _SHRINK * (v - b) for b, v in zip(best, vertex)]
                    simplex[i] = pair((yield x), x)

    # The simplex was just sorted, so its first vertex is the first minimum.
    return SimplexResult(
        x=np.array(best),
        fun=f_best,
        converged=converged,
        iterations=iterations,
        n_evaluations=n_evaluations,
    )


def _lockstep(func, searches: list) -> list[SimplexResult]:
    """Drive the generators ``searches`` of :func:`_search` in fixed lanes; their results, in their order.

    ``func(points)`` takes one point per search, in that order, and returns
    their values. A search that has ended keeps its last point, whose value is
    dropped; the driver returns when the last search ends.
    """
    results = [None] * len(searches)
    points = [next(search) for search in searches]  # a search evaluates its start before it can end
    running = len(searches)
    while running:
        for lane, value in enumerate(func(points)):
            if results[lane] is None:
                try:
                    points[lane] = searches[lane].send(value)
                except StopIteration as stop:
                    results[lane] = stop.value
                    running -= 1
    return results

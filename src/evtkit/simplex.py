"""Derivative-free Nelder-Mead simplex minimization.

Plain reflection/expansion/contraction/shrink scheme. Objective values of
+inf (or NaN, treated as +inf) mark infeasible points and are handled as
worst-vertex, so hard constraint violations simply repel the simplex.

The search is one generator, :func:`_search`: it yields each point and
receives that point's value, and it holds only the geometry.
:func:`_lockstep` is the one loop that sends values: it drives K searches
in fixed lanes, with one call of a K-point objective per step, until the
last search ends (Nelder & Mead 1965; Lagarias et al. 1998). It is the one
place that makes each value a Python float, NaN as inf, counts the
evaluations and builds each :class:`SimplexResult`. Every search of a fit
is such a lane, and :func:`nelder_mead` is that loop with one lane of an
array objective. A lane is its search driven alone, to the bit.

With one coordinate a search steps on two floats: the best and the worst
vertex, with their values. With two or more, the simplex is one list of
``(value, vertex)`` pairs, each vertex a list of Python floats: with at
most 4 vertices of 3 coordinates, numpy's fixed cost per call would
dominate the arithmetic, and so would Python's, so a step calls no
function per evaluation and runs no generator expression. Each iteration
starts with a stable sort of the vertices by value, so ties keep their
order. The order of each floating-point operation is part of the contract
(the centroid is summed in value order, then divided; a shrink evaluates
the vertices in that order): it fixes every fit to the bit, and the two
steps make the same points for one coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, itemgetter, sub
from typing import Callable

import numpy as np

from .errors import DomainError

_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5
# Converged when the vertex values and every coordinate agree to within this.
_TOLERANCE = 1e-8
_VALUE, _VERTEX = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    fun: float
    converged: bool
    iterations: int
    n_evaluations: int


def nelder_mead(
    func: Callable[[np.ndarray], float], x0, initial_steps=0.1, max_iterations: int = 10_000
) -> SimplexResult:
    """Minimize ``func`` starting from ``x0``.

    Converged when the spread of the vertex values and the spread of every
    coordinate over the vertices are below 1e-8.

    Parameters
    ----------
    func : callable
        Objective taking a fresh 1-d float64 coordinate array, returning a
        float, or a value that ``float`` takes; NaN counts as inf.
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
        Empty or non-finite ``x0``; steps that are zero, non-finite, or
        neither a scalar nor one per coordinate.
    """
    return _lockstep(lambda points: [func(np.array(points[0]))], [_search(x0, initial_steps, max_iterations)])[0]


def _search(x0, initial_steps=0.1, max_iterations: int = 10_000):
    """The search of :func:`nelder_mead` as a generator, driven by :func:`_lockstep`: it yields each point,
    a list of floats, receives its value by ``send``, a Python float that is never NaN, and returns
    ``(x, fun, converged, iterations)``. Its :class:`DomainError` comes before the first point. One
    coordinate steps on two floats, and two or more on the list of vertices."""
    # Checked on lists: numpy's all and any cost microseconds each, a share of a short search.
    start = np.asarray(x0, dtype=float).ravel().tolist()
    ndim = len(start)
    if not ndim:
        raise DomainError("starting point must have at least one coordinate")
    steps = np.asarray(initial_steps, dtype=float)
    if steps.ndim > 1 or steps.size not in (1, ndim):
        raise DomainError(f"initial simplex steps must be a scalar or one per coordinate ({ndim})")
    steps = steps.ravel().tolist() * (ndim if steps.size == 1 else 1)
    if not all(map(math.isfinite, steps)) or 0.0 in steps:
        raise DomainError("initial simplex steps must be finite and nonzero")
    if not all(map(math.isfinite, start)):
        raise DomainError("starting point must be finite")

    simplex = []
    for x in [start] + [start[:i] + [start[i] + step] + start[i + 1 :] for i, step in enumerate(steps)]:
        simplex.append(((yield x), x))

    converged, iterations = False, 0
    if ndim == 1:
        # The steps below on two floats, in the same order: the centroid is the best vertex (c / 1 is c),
        # no reflected value is below the second vertex's without being below the best's, a shrink moves
        # the worst, and |b - w| is the spread max - min, NaN when a coordinate is.
        (f_best, (best,)), (f_worst, (worst,)) = simplex
        while True:
            if f_worst < f_best:  # the stable sort of two
                f_best, best, f_worst, worst = f_worst, worst, f_best, best
            if f_worst - f_best < _TOLERANCE and abs(best - worst) < _TOLERANCE:
                converged = True
                break
            if iterations >= max_iterations:
                break
            iterations += 1

            away = best - worst
            reflected = best + away
            f_reflected = yield [reflected]

            if f_reflected < f_best:
                x = best + _EXPAND * away
                value = yield [x]
                f_worst, worst = (value, x) if value < f_reflected else (f_reflected, reflected)
            else:
                x = best + _CONTRACT * ((reflected if f_reflected < f_worst else worst) - best)
                value = yield [x]
                if value < f_worst and value <= f_reflected:
                    f_worst, worst = value, x
                else:
                    worst = best + _SHRINK * (worst - best)
                    f_worst = yield [worst]
        return [best], f_best, converged, iterations

    while True:
        simplex.sort(key=_VALUE)  # stable, as argsort(kind="stable")
        (f_best, best), (f_worst, worst) = simplex[0], simplex[-1]
        vertices = list(map(_VERTEX, simplex))

        # Rounding is monotone, so the widest pair of a coordinate rounds to its
        # max - min; a coordinate holding NaN fails, as in numpy.
        if f_worst - f_best < _TOLERANCE:
            for col in zip(*vertices):
                if not max(col) - min(col) < _TOLERANCE or any(map(math.isnan, col)):
                    break
            else:
                converged = True
                break
        if iterations >= max_iterations:
            break
        iterations += 1

        centroid = vertices[0]
        for vertex in vertices[1:-1]:
            centroid = list(map(add, centroid, vertex))
        centroid = [c / ndim for c in centroid]
        # The reflection c + 1.0 * (c - w) is c + (c - w): the multiply by 1.0 is exact.
        away = list(map(sub, centroid, worst))
        reflected = list(map(add, centroid, away))
        f_reflected = yield reflected

        if f_reflected < f_best:
            x = [c + _EXPAND * d for c, d in zip(centroid, away)]
            value = yield x
            simplex[-1] = (value, x) if value < f_reflected else (f_reflected, reflected)
        elif f_reflected < simplex[-2][0]:
            simplex[-1] = (f_reflected, reflected)
        else:
            # Contract toward the reflected point when it beats the worst vertex
            # (outside), else toward the worst vertex (inside); c + 0.5 * (w - c)
            # is the same float as c - 0.5 * (c - w), as negation is exact.
            toward = reflected if f_reflected < f_worst else worst
            x = [c + _CONTRACT * (t - c) for c, t in zip(centroid, toward)]
            value = yield x
            if value < f_worst and value <= f_reflected:
                simplex[-1] = (value, x)
            else:
                for i in range(1, ndim + 1):
                    x = [b + _SHRINK * (v - b) for b, v in zip(best, vertices[i])]
                    simplex[i] = ((yield x), x)

    # The simplex was just sorted, so its first vertex is the first minimum.
    return best, f_best, converged, iterations


def _lockstep(func, searches: list) -> list[SimplexResult]:
    """Drive the generators ``searches`` of :func:`_search` in fixed lanes; their results, in their order.

    ``func(points)`` takes one point per search, in that order, and returns
    their values; each is sent as a Python float, NaN as inf (-inf stays). A
    search that has ended keeps its last point, whose value is dropped; the
    driver returns when the last search ends. Every running search gets one
    value per call, so one that ends on call k made k evaluations.
    """
    results = [None] * len(searches)
    points = [next(search) for search in searches]  # a search evaluates its start before it can end
    running, n_evaluations = len(searches), 0
    while running:
        n_evaluations += 1
        for lane, value in enumerate(func(points)):
            if results[lane] is None:
                value = float(value)
                try:
                    points[lane] = searches[lane].send(math.inf if value != value else value)
                except StopIteration as stop:
                    x, fun, converged, iterations = stop.value
                    results[lane] = SimplexResult(np.array(x), fun, converged, iterations, n_evaluations)
                    running -= 1
    return results

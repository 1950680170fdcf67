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

A search takes one of three steps, chosen by its number of coordinates.
With one (the Gumbel-type profile searches) it steps on two floats: the
best and the worst vertex, with their values. With three (every GEV
search) it steps on named floats: the four ``(value, vertex)`` pairs are
unpacked by name, and the centroid, reflection, expansion, contractions
and shrink are written out coordinate by coordinate. With two or four and
more (only :func:`nelder_mead` runs those) the list loop steps on one list
of ``(value, vertex)`` pairs. Every vertex, and every point a search
yields, is a list of Python floats: with at most 4 vertices of 3
coordinates, numpy's fixed cost per call would dominate the arithmetic,
and so would Python's, so no step runs a generator expression. Each
iteration starts with a stable sort of the vertices by value, so ties
keep their order. The order of each floating-point operation is part of
the contract (the centroid is summed in value order, then divided; a
shrink evaluates the vertices in that order): it fixes every fit to the
bit, and the one- and three-coordinate steps make the points that the
list loop would.
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
    a list of Python floats, receives its value by ``send``, a Python float that is never NaN, and returns
    ``(x, fun, converged, iterations)``, ``x`` a list. Its :class:`DomainError` comes before the first
    point. One coordinate steps on two floats, three on named floats, and two or four and more on the
    list of vertices."""
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

    if ndim == 3:
        # The list loop's step on named floats, in the same order: the centroid ((b + p) + q) / 3 (3.0, the
        # float that ndim becomes), then the reflection, expansion, contractions and shrink coordinate by
        # coordinate. f_next is the second-worst value, which a reflected point must beat to be kept as is.
        while True:
            simplex.sort(key=_VALUE)
            (f_best, best), (_, p), (f_next, q), (f_worst, worst) = simplex
            (b0, b1, b2), (p0, p1, p2), (q0, q1, q2), (w0, w1, w2) = best, p, q, worst
            # Each coordinate's |best - worst| first, and the full spread only when all pass: the spread
            # rounds to at least |best - worst|, as rounding is monotone, and NaN fails both tests.
            if (f_worst - f_best < _TOLERANCE and abs(b0 - w0) < _TOLERANCE and abs(b1 - w1) < _TOLERANCE
                    and abs(b2 - w2) < _TOLERANCE and _collapsed((best, p, q, worst))):
                converged = True
                break
            if iterations >= max_iterations:
                break
            iterations += 1

            c0, c1, c2 = ((b0 + p0) + q0) / 3.0, ((b1 + p1) + q1) / 3.0, ((b2 + p2) + q2) / 3.0
            d0, d1, d2 = c0 - w0, c1 - w1, c2 - w2
            reflected = [c0 + d0, c1 + d1, c2 + d2]
            f_reflected = yield reflected

            if f_reflected < f_best:
                x = [c0 + _EXPAND * d0, c1 + _EXPAND * d1, c2 + _EXPAND * d2]
                value = yield x
                simplex[3] = (value, x) if value < f_reflected else (f_reflected, reflected)
            elif f_reflected < f_next:
                simplex[3] = (f_reflected, reflected)
            else:
                t0, t1, t2 = reflected if f_reflected < f_worst else worst
                x = [c0 + _CONTRACT * (t0 - c0), c1 + _CONTRACT * (t1 - c1), c2 + _CONTRACT * (t2 - c2)]
                value = yield x
                if value < f_worst and value <= f_reflected:
                    simplex[3] = (value, x)
                else:
                    for i, (v0, v1, v2) in enumerate((p, q, worst), 1):
                        x = [b0 + _SHRINK * (v0 - b0), b1 + _SHRINK * (v1 - b1), b2 + _SHRINK * (v2 - b2)]
                        simplex[i] = ((yield x), x)
        return best, f_best, converged, iterations

    while True:
        simplex.sort(key=_VALUE)  # stable, as argsort(kind="stable")
        (f_best, best), (f_worst, worst) = simplex[0], simplex[-1]
        vertices = list(map(_VERTEX, simplex))
        if f_worst - f_best < _TOLERANCE and _collapsed(vertices):
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


def _collapsed(vertices) -> bool:
    """Whether each coordinate spreads less than the tolerance over ``vertices``; NaN fails, as in numpy."""
    # Rounding is monotone, so the widest pair of a coordinate rounds to its max - min.
    for col in zip(*vertices):
        if not max(col) - min(col) < _TOLERANCE or any(map(math.isnan, col)):
            return False
    return True


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

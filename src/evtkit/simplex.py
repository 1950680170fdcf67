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

Every search steps by one template. :func:`_step_source` writes the search
generator for n coordinates as Python source, and :func:`_search` compiles
it once per n. The source names each vertex's value and coordinates
(``f0, x0_0, x0_1, ...`` for the best vertex, ``fn, xn_0, ...`` for the
worst) as local variables and writes the step out coordinate by
coordinate. Naming is what makes the step fast: on a few vertices of a few
coordinates, the fixed costs of a loop over a list of vertices, or of a
numpy call, dominate the arithmetic. The start and a shrink sort the
vertices by one call of ``sorted``; any other step replaces only the worst
vertex, which then moves down past each strictly worse one. So the source
grows as the square of n and its nesting not at all. What naming costs:
the step is read as a template, not as code. Tracebacks show its lines, as
the source is registered in :mod:`linecache`, but coverage, and any line
tracer that maps lines to files, cannot see inside it: no file holds those
lines. :func:`_search` checks its arguments before it makes the generator,
so its :class:`DomainError` comes from the call itself. And each process
writes and compiles the step of each number of coordinates on its first
search of that size.

Every point a search yields is a fresh list of Python floats. Each
iteration starts with the vertices in stable value order, so ties keep
their order. The order of each floating-point operation is part of the
contract (the centroid is summed in value order from 0.0, then divided; a
shrink evaluates the vertices in that order): it fixes every fit to the
bit.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

from .errors import DomainError
from .sample import whole_number

_EXPAND = 2.0
_CONTRACT = 0.5
_SHRINK = 0.5
# Converged when the vertex values and every coordinate agree to within this.
_TOLERANCE = 1e-8
# The compiled search generator of each number of coordinates, by that number.
_SEARCHES: dict = {}


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
        Hard cap on simplex steps; a whole number, at least 0.

    Returns
    -------
    SimplexResult
        Best vertex found, its value, convergence flag, and counters.

    Raises
    ------
    DomainError
        Empty or non-finite ``x0``; steps that are zero, non-finite, or
        neither a scalar nor one per coordinate; a ``max_iterations`` that
        is not a whole number of at least 0 (NaN, inf, None, 1.5, -1).

    Notes
    -----
    The first search of each number of coordinates in a process writes and
    compiles its step, whose source grows as the square of that number: about
    2.3 MB and 1 s to compile at 120 coordinates, 6.8 MB and 2 to 3 s at 200
    (Python 3.11, one core of an Intel Xeon). From about 3 000 coordinates
    ``compile`` raises ``RecursionError``, as each centroid coordinate is one
    left fold n names deep.
    """
    return _lockstep(lambda points: [func(np.array(points[0]))], [_search(x0, initial_steps, max_iterations)])[0]


def _search(x0, initial_steps=0.1, max_iterations: int = 10_000):
    """The search of :func:`nelder_mead` as a generator, driven by :func:`_lockstep`: it yields each point,
    a list of Python floats, receives its value by ``send``, a Python float that is never NaN, and returns
    ``(x, fun, converged, iterations)``, ``x`` a list. The arguments are checked here, so a
    :class:`DomainError` is raised by this call, before the generator exists."""
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
    max_iterations = whole_number(max_iterations, "max_iterations")
    if max_iterations < 0:
        raise DomainError(f"max_iterations must be at least 0, got {max_iterations}")
    search = _SEARCHES.get(ndim)
    if search is None:
        source, filename = _step_source(ndim), f"<evtkit.simplex search, {ndim} coordinates>"
        # Registered so that a traceback shows the generated lines; no file backs them, so none is reread.
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        namespace = {"_collapsed": _collapsed, "_value": itemgetter(0)}
        exec(compile(source, filename, "exec"), namespace)
        search = _SEARCHES[ndim] = namespace["search"]
    return search(start, steps, max_iterations)


def _step_source(n: int) -> str:
    """The Python source of ``search(start, steps, max_iterations)``, the search generator for ``n``
    coordinates, with its step written out coordinate by coordinate.

    Vertex ``j`` of the sorted simplex is its value ``fj`` and its coordinates ``xj_0`` to ``xj_{n-1}``:
    vertex 0 is the best, vertex ``n`` the worst. The operations are those of numpy arrays, in their order:
    the centroid is the left fold of 0.0 and vertices 0 to n - 1, over ``float(n)`` when n > 1, and a shrink
    moves and evaluates vertices 1 to n in turn. The start and a shrink sort by ``sorted``; any other step
    moves its new worst vertex down by n flat tests, so the nesting is 4 levels at every n.
    """

    def each(fmt, **values):  # fmt once per coordinate k: each("x{j}_{k}", j=2) is "x2_0, x2_1" at n = 2
        return ", ".join(fmt.format(k=k, **values) for k in range(n))

    def xs(j):  # vertex j's coordinates
        return each("x{j}_{k}", j=j)

    def vertex(j):  # vertex j's value and coordinates
        return f"f{j}, {xs(j)}"

    def keep(value, point):  # the worst vertex becomes point, of that value
        return f"f{n}, {xs(n)}, = {value}, {each(point)},"

    # Each line is (indent level, text).
    lines = [(0, "def search(start, steps, max_iterations):"), (1, f"{xs(0)}, = start"),
             (1, f"{each('s{k}')}, = steps"), (1, f"f0 = yield [{xs(0)}]")]
    for j in range(1, n + 1):
        moved = ", ".join(f"x0_{k} + s{k}" if k == j - 1 else f"x0_{k}" for k in range(n))
        lines += [(1, f"{xs(j)}, = {moved},"), (1, f"f{j} = yield [{xs(j)}]")]
    vertices = ", ".join(f"({vertex(j)})" for j in range(n + 1))
    # All vertices by value, stable as list.sort: at the start and after a shrink, which move many vertices.
    sort = f"{vertices}, = sorted(({vertices},), key=_value)"
    lines += [(1, sort), (1, "converged, iterations = False, 0"), (1, "while True:")]
    # Each coordinate's |best - worst| before the full spread: the spread rounds to at least |best - worst|,
    # as rounding is monotone, and NaN fails both tests. With two vertices the two tests are one.
    collapsed = [f"abs(x0_{k} - x{n}_{k}) < {_TOLERANCE}" for k in range(n)]
    if n > 1:
        collapsed.append("_collapsed((" + " ".join(f"({xs(j)},)," for j in range(n + 1)) + "))")
    # The fold starts at 0.0, as numpy's sum does, so a coordinate that is -0.0 at every vertex has centroid 0.0.
    fold = " + ".join(["0.0"] + [f"x{j}_{{k}}" for j in range(n)])
    centroid = each(f"({fold}) / {float(n)}" if n > 1 else fold)
    lines += [
        (2, f"if f{n} - f0 < {_TOLERANCE} and " + " and ".join(collapsed) + ":"),
        (3, "converged = True"),
        (3, "break"),
        (2, "if iterations >= max_iterations:"),
        (3, "break"),
        (2, "iterations += 1"),
        (2, f"{each('c{k}')}, = {centroid},"),
        # The reflection c + 1.0 * (c - w) is c + (c - w): the multiply by 1.0 is exact.
        (2, f"{each('d{k}')}, = {each('c{k} - x{j}_{k}', j=n)},"),
        (2, f"{each('r{k}')}, = {each('c{k} + d{k}')},"),
        (2, f"fr = yield [{each('r{k}')}]"),
        (2, "if fr < f0:"),
        (3, f"{each('e{k}')}, = {each('c{k} + {a} * d{k}', a=_EXPAND)},"),
        (3, f"fe = yield [{each('e{k}')}]"),
        (3, "if fe < fr:"),
        (4, keep("fe", "e{k}")),
        (3, "else:"),
        (4, keep("fr", "r{k}")),
    ]
    if n > 1:  # with one vertex, a reflected value below the second-worst is below the best's
        lines += [(2, f"elif fr < f{n - 1}:"), (3, keep("fr", "r{k}"))]
    # Contract toward the reflected point when it beats the worst vertex (outside), else toward the worst
    # vertex (inside), as c - 0.5 * (c - w): c + 0.5 * (w - c) is 0.0 where c and w are -0.0.
    lines += [
        (2, "else:"),
        (3, f"if fr < f{n}:"),
        (4, f"{each('k{k}')}, = {each('c{k} + {a} * (r{k} - c{k})', a=_CONTRACT)},"),
        (3, "else:"),
        (4, f"{each('k{k}')}, = {each('c{k} - {a} * d{k}', a=_CONTRACT)},"),
        (3, f"fk = yield [{each('k{k}')}]"),
        (3, f"if fk < f{n} and fk <= fr:"),
        (4, keep("fk", "k{k}")),
        (3, "else:"),
    ]
    for j in range(1, n + 1):
        lines += [(4, f"{xs(j)}, = {each('x0_{k} + {a} * (x{j}_{k} - x0_{k})', j=j, a=_SHRINK)},"),
                  (4, f"f{j} = yield [{xs(j)}]")]
    lines += [(4, sort), (4, "continue")]
    # Any other step replaced only the worst vertex: list.sort's stable order moves it past each strictly worse one.
    for j in range(n - 1, -1, -1):
        lines.append((2, f"if f{j + 1} < f{j}: {vertex(j)}, {vertex(j + 1)} = {vertex(j + 1)}, {vertex(j)}"))
    # The simplex is in order at the top of the loop, so vertex 0 is the first minimum.
    lines.append((1, f"return [{xs(0)}], f0, converged, iterations"))
    return "".join("    " * depth + text + "\n" for depth, text in lines)


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

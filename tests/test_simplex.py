"""Nelder-Mead minimizer behavior on standard objectives."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtkit import nelder_mead
from evtkit.simplex import SimplexResult, _search
from evtkit.errors import DomainError


def quadratic(x):
    return float(np.sum((x - np.array([1.0, -2.0, 3.0])[: x.size]) ** 2))


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def test_quadratic_minimum():
    res = nelder_mead(quadratic, [0.0, 0.0, 0.0])
    assert res.converged
    assert np.allclose(res.x, [1.0, -2.0, 3.0], atol=1e-5)
    assert res.fun < 1e-10


def test_rosenbrock_minimum():
    res = nelder_mead(rosenbrock, [-1.2, 1.0], max_iterations=5000)
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)


def test_one_dimensional():
    res = nelder_mead(lambda x: float((x[0] - 4.0) ** 2), 0.0)
    assert res.converged
    assert res.x[0] == pytest.approx(4.0, abs=1e-6)


def test_never_worsens_the_start():
    start = np.array([0.3, 0.7])
    res = nelder_mead(quadratic, start, max_iterations=3)
    assert res.fun <= quadratic(start)


def test_iteration_budget_reported_unconverged():
    res = nelder_mead(rosenbrock, [-1.2, 1.0], max_iterations=5)
    assert not res.converged
    assert res.iterations == 5


def test_infeasible_region_is_avoided():
    # +inf on half the plane acts as a hard constraint
    def constrained(x):
        if x[0] <= 0.0:
            return np.inf
        return float((x[0] - 2.0) ** 2 + x[1] ** 2)

    res = nelder_mead(constrained, [0.5, 1.0])
    assert res.converged
    assert np.allclose(res.x, [2.0, 0.0], atol=1e-5)


def test_nan_treated_as_worst():
    def nan_hole(x):
        if abs(x[0]) < 0.05:
            return float("nan")
        return float(x[0] ** 2)

    res = nelder_mead(nan_hole, [3.0], max_iterations=200)
    assert res.fun < 0.01  # settles at the rim of the NaN hole


def test_deterministic():
    a = nelder_mead(rosenbrock, [-1.2, 1.0])
    b = nelder_mead(rosenbrock, [-1.2, 1.0])
    assert np.array_equal(a.x, b.x)
    assert a.fun == b.fun and a.iterations == b.iterations


def test_rejects_zero_step():
    with pytest.raises(DomainError):
        nelder_mead(quadratic, [0.0, 0.0], initial_steps=[0.1, 0.0])


def test_evaluation_counter():
    res = nelder_mead(quadratic, [0.0, 0.0, 0.0])
    assert res.n_evaluations >= res.iterations


def test_rejects_step_count_mismatch():
    with pytest.raises(DomainError):
        nelder_mead(quadratic, [0.0, 0.0], initial_steps=[0.1, 0.1, 0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_start(bad):
    calls = []
    with pytest.raises(DomainError):
        nelder_mead(lambda x: calls.append(x) or 0.0, [bad, 0.0])
    assert not calls


@pytest.mark.parametrize("x0", [[], np.empty((2, 0))])
def test_rejects_a_start_with_no_coordinates(x0):
    # It returned converged after 0 iterations, with a value of func at an empty vector.
    calls = []
    with pytest.raises(DomainError, match="at least one coordinate"):
        nelder_mead(lambda x: calls.append(x) or 0.0, x0)
    assert not calls
    with pytest.raises(DomainError):
        next(_search(x0))  # before the first point


def test_huge_start_neither_raises_nor_warns():
    # Python-float arithmetic, so any warning would come from the simplex itself
    def quadratic_in_floats(x):
        return sum((v - 1.0) * (v - 1.0) for v in x.tolist())

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = nelder_mead(quadratic_in_floats, [1e308, 1e308], max_iterations=20)
    assert res.fun == np.inf and not res.converged and res.iterations == 20


def test_objective_gets_a_fresh_float_vector():
    seen = []
    nelder_mead(lambda x: seen.append(x) or quadratic(x), [0.0, 0.0], max_iterations=30)
    assert all(x.dtype == np.float64 and x.ndim == 1 and x.base is None for x in seen)
    assert len({id(x) for x in seen}) == len(seen)


def _reference_nelder_mead(func, x0, initial_steps=0.1, max_iterations=10_000,
                           function_tolerance=1e-8, parameter_tolerance=1e-8):
    """The numpy-array Nelder-Mead that ``nelder_mead`` must reproduce bit for bit."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    ndim = x0.size
    steps = np.broadcast_to(np.asarray(initial_steps, dtype=float), (ndim,))
    n_evaluations = 0

    def evaluate(x):
        nonlocal n_evaluations
        n_evaluations += 1
        value = float(func(x))
        return np.inf if np.isnan(value) else value

    def shrink():
        for i in range(1, vertices.shape[0]):
            vertices[i] = vertices[0] + 0.5 * (vertices[i] - vertices[0])
            values[i] = evaluate(vertices[i])

    vertices = np.tile(x0, (ndim + 1, 1))
    for i in range(ndim):
        vertices[i + 1, i] += steps[i]
    values = np.array([evaluate(v) for v in vertices])

    converged = False
    iterations = 0
    while True:
        order = np.argsort(values, kind="stable")
        vertices = vertices[order]
        values = values[order]

        f_spread = values[-1] - values[0]
        x_spread = np.max(vertices.max(axis=0) - vertices.min(axis=0))
        if f_spread < function_tolerance and x_spread < parameter_tolerance:
            converged = True
            break
        if iterations >= max_iterations:
            break
        iterations += 1

        centroid = vertices[:-1].mean(axis=0)
        reflected = centroid + 1.0 * (centroid - vertices[-1])
        f_reflected = evaluate(reflected)

        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - vertices[-1])
            f_expanded = evaluate(expanded)
            if f_expanded < f_reflected:
                vertices[-1], values[-1] = expanded, f_expanded
            else:
                vertices[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            vertices[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
            f_contracted = evaluate(contracted)
            if f_contracted <= f_reflected:
                vertices[-1], values[-1] = contracted, f_contracted
            else:
                shrink()
        else:
            contracted = centroid - 0.5 * (centroid - vertices[-1])
            f_contracted = evaluate(contracted)
            if f_contracted < values[-1]:
                vertices[-1], values[-1] = contracted, f_contracted
            else:
                shrink()

    best = int(np.argmin(values))
    return SimplexResult(vertices[best].copy(), float(values[best]), converged, iterations, n_evaluations)


def half_plane(x):
    return np.inf if x[0] <= 0.0 else float((x[0] - 2.0) ** 2 + x[1] ** 2)


def nan_hole(x):
    return float("nan") if abs(x[0]) < 0.05 else float(np.sum(x**2))


def unbounded(x):
    # Falls without bound as x grows, so the points pass the float range to inf
    # and, where inf meets inf, to NaN; those are the infeasible ones.
    value = -float(np.sum(x))
    return value if np.isfinite(value) else np.inf


def floored(x):
    # The same descent, floored at -1e308: finite everywhere, also where the
    # points reach NaN, so a simplex can settle with NaN in a coordinate.
    return float(np.fmax(-np.sum(x), -1e308))


# objective -> the dimensions it is drawn in
ORACLE_OBJECTIVES = {quadratic: (1, 2, 3), rosenbrock: (2,), half_plane: (2, 3), nan_hole: (1, 2, 3),
                     unbounded: (1, 2, 3), floored: (1, 2, 3)}
# objective -> the factor on its drawn start and steps, when not 1
ORACLE_SCALES = {unbounded: 1e307, floored: 1e307}


@st.composite
def oracle_problems(draw):
    func = draw(st.sampled_from(list(ORACLE_OBJECTIVES)))
    ndim = draw(st.sampled_from(ORACLE_OBJECTIVES[func]))
    scale = ORACLE_SCALES.get(func, 1.0)
    x0 = draw(st.lists(st.floats(-3.0, 3.0).map(scale.__mul__), min_size=ndim, max_size=ndim))
    step = st.floats(-1.0, 1.0).filter(lambda s: s != 0.0).map(scale.__mul__)
    steps = draw(step | st.lists(step, min_size=ndim, max_size=ndim))
    return func, x0, steps, draw(st.integers(0, 300))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oracle_problems())
@example((rosenbrock, [-1.2, 1.0], 0.1, 10_000))
@example((quadratic, [0.1, 0.7, -0.3], 0.1, 10_000))
@example((half_plane, [-0.5, 1.0], [0.3, -0.2], 50))
@example((nan_hole, [3.0], -0.5, 200))
@example((unbounded, [1e308, -1e308], 1e307, 300))
@example((unbounded, [-1.7e308, 1e308, 1.5e308], [1e308, -5e307, 2e307], 300))
@example((unbounded, [1.7e308], -1e308, 50))
@example((floored, [1e308, -1e308], 1e307, 300))
@example((floored, [1.5e307, -4e306], [1e307, -1e306], 300))
def test_matches_the_numpy_reference_bit_for_bit(problem):
    func, x0, steps, budget = problem
    points = {}

    def recorded(key):
        points[key] = []
        return lambda x: points[key].append(x.copy()) or func(x)

    with np.errstate(all="ignore"):
        res = nelder_mead(recorded("new"), x0, initial_steps=steps, max_iterations=budget)
        ref = _reference_nelder_mead(recorded("ref"), x0, initial_steps=steps, max_iterations=budget)
    assert np.array_equal(res.x, ref.x) and res.x.tobytes() == ref.x.tobytes()
    assert res.fun == ref.fun
    assert (res.converged, res.iterations, res.n_evaluations) == (
        ref.converged, ref.iterations, ref.n_evaluations)
    assert len(points["new"]) == len(points["ref"])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(points["new"], points["ref"]))

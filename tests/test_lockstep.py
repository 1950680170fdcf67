"""The simplex searches driven in fixed lanes: each lane is the search driven alone, to the bit."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evtkit.simplex import _lockstep, _search, nelder_mead

from test_simplex import oracle_problems


def shifted_quadratic(center):
    return lambda x: float(np.sum((x - center) ** 2))


# Starts at different distances from their minima, so the lanes end on
# different iterations; the third has a budget of 5 iterations and runs out.
PROBLEMS = [
    (shifted_quadratic(np.array([1.0, -2.0])), [0.0, 0.0], 0.1, 10_000),
    (shifted_quadratic(np.array([30.0, 4.0])), [0.5, 0.5], [0.3, -0.2], 10_000),
    (shifted_quadratic(np.array([-3.0, 3.0])), [0.0, 0.0], 0.1, 5),
    (shifted_quadratic(np.array([0.2])), [0.0], 0.5, 10_000),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(oracle_problems(), min_size=1, max_size=4))
@example(PROBLEMS)
def test_each_lane_is_its_search_driven_alone(problems):
    # The oracle problems of the simplex tests: 1 to 6 coordinates, budgets of 0 to 300,
    # and objectives that are inf or NaN on part of the plane or past the float range.
    calls = []  # the points of every call, each as its bytes

    def evaluate(points):
        calls.append([np.array(x).tobytes() for x in points])
        return [problems[lane][0](np.array(x)) for lane, x in enumerate(points)]

    with np.errstate(all="ignore"):
        results = _lockstep(evaluate, [_search(x0, steps, budget) for _, x0, steps, budget in problems])
    for lane, (func, x0, steps, budget) in enumerate(problems):
        alone_points = []
        with np.errstate(all="ignore"):
            alone = nelder_mead(lambda x: alone_points.append(x.tobytes()) or func(x), x0, steps, budget)
        assert results[lane].x.tobytes() == alone.x.tobytes(), lane
        assert (results[lane].fun, results[lane].converged, results[lane].iterations) == (
            alone.fun,
            alone.converged,
            alone.iterations,
        ), lane
        assert results[lane].n_evaluations == alone.n_evaluations, lane
        # The lane's own points, then its last point again on every call after its search ended.
        seen = [points[lane] for points in calls]
        assert seen == alone_points + [alone_points[-1]] * (len(calls) - len(alone_points)), lane
    if problems is PROBLEMS:
        assert not results[2].converged and results[2].iterations == 5
        assert all(results[lane].converged for lane in (0, 1, 3))
        assert len({results[lane].iterations for lane in range(len(PROBLEMS))}) == len(PROBLEMS)
    # Every call takes one point per lane, until the last search ends.
    assert all(len(points) == len(problems) for points in calls)
    assert len(calls) == max(result.n_evaluations for result in results)


def test_no_searches_and_a_nan_lane():
    assert _lockstep(None, []) == []
    # NaN reaches each lane's simplex as inf, as when driven alone.
    nan_hole = lambda x: float("nan") if abs(x[0]) < 0.05 else float(np.sum(x**2))  # noqa: E731
    (lane,) = _lockstep(lambda points: [nan_hole(np.array(x)) for x in points], [_search([3.0])])
    alone = nelder_mead(nan_hole, [3.0])
    assert (lane.x.tobytes(), lane.fun, lane.n_evaluations) == (alone.x.tobytes(), alone.fun, alone.n_evaluations)


def test_each_search_receives_floats_never_nan_and_counts_them():
    # The driver makes each value a Python float, NaN as inf, and counts one evaluation per value
    # sent. The objective returns numpy floats, and NaN in a hole at its minimum, which the 1-D, 2-D
    # and 3-D searches each meet at reflected, expanded, contracted and shrunk points.
    received, nans = [[], [], []], [0, 0, 0]

    def objective(lane, x):
        if abs(x[0] - 3.0) < 0.05:
            nans[lane] += 1
            return np.float64("nan")
        return np.float64(np.sum((x - 3.0) ** 2))

    def recorded(lane, search):
        point = next(search)
        try:
            while True:
                value = yield point
                received[lane].append(value)
                point = search.send(value)
        except StopIteration as stop:
            return stop.value

    results = _lockstep(
        lambda points: [objective(lane, np.array(x)) for lane, x in enumerate(points)],
        [recorded(0, _search([0.0])), recorded(1, _search([0.0, 0.0])), recorded(2, _search([0.0, 0.0, 0.0]))],
    )
    assert all(nans)
    for lane, values in enumerate(received):
        assert all(type(value) is float for value in values), lane
        assert not any(map(math.isnan, values)), lane
        assert results[lane].n_evaluations == len(values), lane

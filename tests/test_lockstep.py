"""The simplex searches driven in lanes: each lane is the search driven alone, to the bit."""

import numpy as np

from evtkit.simplex import _lockstep, _search, nelder_mead


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


def test_each_lane_is_its_search_driven_alone():
    made = []  # the lanes each objective was made for
    seen = {lane: [] for lane in range(len(PROBLEMS))}

    def objective(lanes):
        made.append(list(lanes))

        def values(points):
            assert len(points) == len(lanes)
            for lane, x in zip(lanes, points):
                seen[lane].append(list(x))
            return [PROBLEMS[lane][0](np.array(x)) for lane, x in zip(lanes, points)]

        return values

    searches = [_search(x0, steps, budget) for _, x0, steps, budget in PROBLEMS]
    results = _lockstep(objective, searches)
    for lane, (func, x0, steps, budget) in enumerate(PROBLEMS):
        alone_points = []
        alone = nelder_mead(lambda x: alone_points.append(x.tolist()) or func(x), x0, steps, budget)
        assert results[lane].x.tobytes() == alone.x.tobytes(), lane
        assert (results[lane].fun, results[lane].converged, results[lane].iterations) == (
            alone.fun,
            alone.converged,
            alone.iterations,
        ), lane
        assert results[lane].n_evaluations == alone.n_evaluations == len(seen[lane]), lane
        assert seen[lane] == alone_points, lane
    assert not results[2].converged and results[2].iterations == 5
    assert all(results[lane].converged for lane in (0, 1, 3))
    assert len({results[lane].iterations for lane in range(len(PROBLEMS))}) == len(PROBLEMS)
    # Every lane starts together; each ending lane leaves, in the order the lanes end.
    assert made[0] == [0, 1, 2, 3]
    assert all(set(later) < set(earlier) for earlier, later in zip(made, made[1:]))
    assert made[-1] == [max(range(len(PROBLEMS)), key=lambda lane: results[lane].n_evaluations)]


def test_no_searches_and_a_nan_lane():
    assert _lockstep(lambda lanes: None, []) == []
    # NaN reaches each lane's simplex as inf, as when driven alone.
    nan_hole = lambda x: float("nan") if abs(x[0]) < 0.05 else float(np.sum(x**2))  # noqa: E731
    (lane,) = _lockstep(lambda lanes: lambda points: [nan_hole(np.array(x)) for x in points], [_search([3.0])])
    alone = nelder_mead(nan_hole, [3.0])
    assert (lane.x.tobytes(), lane.fun, lane.n_evaluations) == (alone.x.tobytes(), alone.fun, alone.n_evaluations)

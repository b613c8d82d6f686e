import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladlasso import ccd
from ladlasso.brute import solve_brute
from ladlasso.ccd import ccd_descend, is_axiswise_minimum, solve_ccd
from ladlasso.fixtures import CCD_STALL_GEN, CCD_STALL_LAMBDA, ccd_stall_problem
from ladlasso.linesearch import (
    PiecewiseLinear1D,
    weighted_median_from,
    weighted_median_min,
    weighted_median_sorted,
)
from ladlasso.model import Coefficients, axis_restriction, evaluate_objective
from util import make_problem, rel_gap, tiny_problem


def test_single_axis_equals_weighted_median():
    spec = make_problem(seed=2, d=1, m=7, lam=0.2)
    res = solve_ccd(spec)
    g = axis_restriction(spec, [0.0], 0)
    t_star, v_star = weighted_median_min(g)
    assert res.converged
    assert res.objective == pytest.approx(v_star, rel=1e-12)
    assert res.beta.beta[0] == pytest.approx(t_star, rel=1e-12)


def test_orthogonal_columns_solve_separably():
    # one nonzero per row: the axes decouple into independent medians
    x = np.diag([1.0, -2.0, 0.5])
    y = np.array([3.0, 4.0, -1.0])
    spec = tiny_problem(x, y, 0.05)
    res = solve_ccd(spec)

    expected = np.empty(3)
    for j in range(3):
        g = axis_restriction(spec, np.zeros(3), j)
        expected[j], _ = weighted_median_min(g)
    assert np.allclose(res.beta.beta, expected, atol=1e-12)

    reference = solve_brute(spec)
    assert res.objective == pytest.approx(reference.objective, rel=1e-12)


def test_stall_fixture_halts_above_optimum():
    spec = ccd_stall_problem()
    res = solve_ccd(spec)
    reference = solve_brute(spec)
    assert res.converged
    assert is_axiswise_minimum(spec, res.beta)
    assert rel_gap(res.objective, reference.objective) > 1e-3


def test_monotone_trace_every_update():
    for seed in range(8):
        spec = make_problem(seed=seed, d=3, m=8, lam=0.1)
        trace = []
        ccd_descend(spec, Coefficients.zeros(3), trace=trace)
        diffs = np.diff(np.array(trace))
        assert (diffs <= 0).all()


def test_converged_results_are_axiswise_minima():
    for seed in range(20):
        spec = make_problem(seed=100 + seed, d=3, m=7, lam=0.1)
        res = solve_ccd(spec)
        assert res.converged
        assert is_axiswise_minimum(spec, res.beta)


def test_full_shrinkage_in_one_sweep():
    spec = make_problem(seed=9, d=3, m=6, lam=1.0)
    lam_big = 1.01 * np.abs(spec.data.x).sum(axis=0).max()
    big = make_problem(seed=9, d=3, m=6, lam=lam_big)
    res = solve_ccd(big)
    assert res.converged
    assert res.iterations == 1
    assert np.all(res.beta.beta == 0.0)


def test_axiswise_test_detects_perturbation():
    spec = make_problem(seed=4, d=1, m=9, lam=0.2)
    g = axis_restriction(spec, [0.0], 0)
    t_star, _ = weighted_median_min(g)
    assert is_axiswise_minimum(spec, [t_star])
    assert not is_axiswise_minimum(spec, [t_star + 1e-5])


def test_frozen_axis_is_never_moved():
    spec = make_problem(seed=6, d=3, m=8, lam=0.1)
    start = Coefficients(np.array([0.0, 1.5, 0.0]))
    res = ccd_descend(spec, start, frozen_axis=1)
    assert res.beta.beta[1] == 1.5
    assert is_axiswise_minimum(spec, res.beta, skip=1)


def test_perturb_restart_reaches_neighbouring_halt_point():
    spec = ccd_stall_problem()
    stalled = solve_ccd(spec)
    start = stalled.beta.beta.copy()
    start[0] += 0.5
    nudged = ccd_descend(spec, Coefficients(start))
    assert nudged.converged
    assert is_axiswise_minimum(spec, nudged.beta)


def test_sweep_budget_flags_non_convergence(monkeypatch):
    spec = make_problem(seed=21, d=3, m=10, lam=0.05)
    monkeypatch.setattr(ccd, "MAX_SWEEPS", 1)
    res = ccd_descend(spec, Coefficients.zeros(3))
    assert not res.converged


def test_result_objective_revalidates():
    spec = ccd_stall_problem()
    res = solve_ccd(spec)
    assert res.objective == pytest.approx(
        evaluate_objective(spec, res.beta), rel=1e-12
    )
    assert res.solver_id == "ccd_plain"
    assert CCD_STALL_GEN.seed == 0 and CCD_STALL_LAMBDA == 0.01


def _zigzag_problem():
    # a noiseless bench-grid instance (d=5, m=10) whose axis-4 probes zig-zag
    return make_problem(seed=316760, d=5, m=10, lam=0.1, noise=0.0, outliers=0.0)


def test_line_steps_cut_a_zigzag_short():
    spec = _zigzag_problem()
    start = Coefficients(np.array([0.0, 0.0, 0.0, 0.0, 8.61]))
    plain = ccd_descend(spec, start, frozen_axis=4)
    trace = []
    stepped = ccd_descend(spec, start, frozen_axis=4, line_steps=True, trace=trace)
    assert plain.converged and stepped.converged
    assert stepped.iterations < plain.iterations
    assert stepped.objective <= plain.objective
    assert (np.diff(np.array(trace)) <= 0.0).all()
    assert stepped.beta.beta[4] == 8.61
    assert is_axiswise_minimum(spec, stepped.beta, skip=4)
    # every sweep traces 4 coordinate updates and 4 median calls; the rest are
    # line steps, each one median call, traced only when accepted
    updates = 4 * stepped.iterations
    accepted = len(trace) - updates
    attempted = stepped.objective_evals - updates
    assert 1 <= accepted <= attempted


def test_interleaved_problems_match_separate_runs():
    # two problems of the same shape, so that per-problem constants kept for
    # the wrong problem would still index cleanly and show only in the results
    def problems():
        return _zigzag_problem(), make_problem(seed=5, d=5, m=10, lam=0.1)

    def descend(spec):
        results = [
            ccd_descend(spec, Coefficients.zeros(5), frozen_axis=1, line_steps=steps)
            for steps in (False, True)
        ]
        for res in results:
            assert res.converged and is_axiswise_minimum(spec, res.beta, skip=1)
        return results

    def fingerprint(results):
        return [(r.beta.beta.tobytes(), r.objective, r.iterations, r.objective_evals) for r in results]

    alone = [fingerprint(descend(spec) + descend(spec)) for spec in problems()]
    first, second = problems()
    interleaved = [[], []]
    for _ in range(2):
        interleaved[0] += fingerprint(descend(first))
        interleaved[1] += fingerprint(descend(second))
    assert interleaved == alone


# small integers tie often; the floats keep most draws distinct
breakpoint_location = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 30))
def test_warm_median_matches_a_cold_sort(data, n):
    locations = np.array(data.draw(st.lists(breakpoint_location, min_size=n, max_size=n)))
    weights = np.array(data.draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
    warm_order = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)

    t_warm, order = weighted_median_from(locations, weights, warm_order)
    cold = locations.argsort(kind="stable")
    t_cold = weighted_median_sorted(locations[cold], weights[cold].cumsum())

    assert sorted(order.tolist()) == list(range(n))
    assert (np.diff(locations[order]) >= 0.0).all()
    if np.unique(locations).size == n:
        assert order.tolist() == cold.tolist()
        assert t_warm == t_cold
    else:
        g = PiecewiseLinear1D(locations, weights)
        assert g(t_warm) == pytest.approx(g(t_cold), rel=1e-12)


def test_frozen_line_step_descent_is_pinned():
    # a noisy tall problem, so every sweep re-sorts 401 breakpoints per axis
    # from the previous sweep's order; recorded with sorts from scratch
    spec = make_problem(seed=2, d=5, m=400, lam=0.1)
    start = Coefficients(np.array([2.0, 0.0, 0.0, 0.0, 0.0]))
    res = ccd_descend(spec, start, frozen_axis=0, line_steps=True)
    assert res.converged
    assert res.objective == pytest.approx(1278.3967372511438, rel=1e-12)
    assert res.iterations == 12
    assert res.objective_evals == 51

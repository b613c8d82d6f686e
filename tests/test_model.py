import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladlasso.errors import DimensionMismatchError, InvalidInputError
from ladlasso.linesearch import weighted_median_min
from ladlasso.model import (
    Coefficients,
    Dataset,
    ProblemSpec,
    SolveResult,
    axis_restriction,
    evaluate_objective,
    objective_value,
    objective_values,
    validate_result,
)
from util import make_problem, tiny_problem


def test_objective_zero_coefficients_leaves_residual():
    spec = tiny_problem([[1.0]], [2.0], 0.5)
    assert evaluate_objective(spec, [0.0]) == 2.0


def test_objective_exact_fit_pays_penalty_only():
    spec = tiny_problem([[1.0]], [2.0], 0.5)
    assert evaluate_objective(spec, [2.0]) == 1.0


def test_objective_matches_term_by_term_oracle():
    spec = make_problem(seed=11, d=2, m=3, lam=0.3)
    beta = np.array([0.7, -1.2])

    # independent summation: one scalar term at a time
    total = 0.0
    for i in range(spec.m):
        pred = 0.0
        for j in range(spec.d):
            pred += spec.data.x[i, j] * beta[j]
        total += math.fabs(spec.data.y[i] - pred)
    for j in range(spec.d):
        total += spec.lambda_eff * math.fabs(beta[j])

    assert evaluate_objective(spec, beta) == pytest.approx(total, rel=1e-12)


def test_objective_rejects_wrong_length():
    spec = tiny_problem([[1.0]], [2.0], 0.5)
    with pytest.raises(DimensionMismatchError):
        evaluate_objective(spec, [1.0, 2.0])


def test_dataset_validation():
    with pytest.raises(InvalidInputError):
        Dataset(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(DimensionMismatchError):
        Dataset(np.ones((2, 1)), np.ones(3))
    with pytest.raises(InvalidInputError):
        Dataset([[np.nan]], [1.0])
    with pytest.raises(InvalidInputError):
        ProblemSpec(Dataset([[1.0]], [1.0]), -0.5)


def test_types_are_frozen():
    spec = tiny_problem([[1.0]], [2.0], 0.5)
    with pytest.raises(ValueError):
        spec.data.x[0, 0] = 3.0
    c = Coefficients([1.0])
    with pytest.raises(ValueError):
        c.beta[0] = 2.0


def test_lambda_floor_applies():
    spec = tiny_problem([[1.0]], [2.0], 0.0)
    assert spec.lambda_eff == 1e-9
    assert tiny_problem([[1.0]], [2.0], 0.5).lambda_eff == 0.5


def test_axis_restriction_single_point():
    spec = tiny_problem([[1.0]], [3.0], 0.0)
    g = axis_restriction(spec, [0.0], 0)
    # one data breakpoint at t=3 with weight 1, plus the penalty-floor one at 0
    pairs = sorted(zip(g.locations, g.weights))
    assert pairs == [(0.0, spec.lambda_eff), (3.0, 1.0)]
    assert g.constant == 0.0


def test_axis_restriction_zero_column_minimised_at_zero():
    spec = tiny_problem([[0.0, 1.0], [0.0, 2.0]], [1.0, -1.0], 0.2)
    g = axis_restriction(spec, [5.0, 0.5], 0)
    assert list(g.locations) == [0.0]
    t, _ = weighted_median_min(g)
    assert t == 0.0


def test_axis_restriction_agrees_with_substitution():
    spec = make_problem(seed=3, d=3, m=6, lam=0.1)
    beta = np.array([0.4, -2.0, 1.1])
    for j in range(spec.d):
        g = axis_restriction(spec, beta, j)
        for t in np.linspace(-4, 4, 20):
            sub = beta.copy()
            sub[j] = t
            direct = evaluate_objective(spec, sub)
            assert g(t) == pytest.approx(direct, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    theta=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_objective_is_convex(seed, theta, data):
    spec = make_problem(seed=seed % 50, d=2, m=5, lam=0.1)
    b1 = np.array([data.draw(st.floats(-10, 10)) for _ in range(2)])
    b2 = np.array([data.draw(st.floats(-10, 10)) for _ in range(2)])
    mix = theta * b1 + (1 - theta) * b2
    lhs = evaluate_objective(spec, mix)
    rhs = theta * evaluate_objective(spec, b1) + (1 - theta) * evaluate_objective(spec, b2)
    assert lhs <= rhs + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 30), scale=st.floats(-5, 5))
def test_objective_lower_bounds(seed, scale):
    spec = make_problem(seed=seed, d=2, m=4, lam=0.3)
    beta = np.array([scale, -scale / 2])
    f = evaluate_objective(spec, beta)
    assert f >= spec.lambda_eff * np.abs(beta).sum() - 1e-12
    assert evaluate_objective(spec, np.zeros(2)) == pytest.approx(
        np.abs(spec.data.y).sum(), rel=1e-15
    )


def test_validate_result_rejects_corrupt_objective():
    spec = tiny_problem([[1.0]], [2.0], 0.5)
    good = SolveResult(Coefficients([2.0]), 1.0, "brute", 1, 1, 0.0, True)
    validate_result(spec, good)
    bad = SolveResult(Coefficients([2.0]), 1.5, "brute", 1, 1, 0.0, True)
    with pytest.raises(InvalidInputError):
        validate_result(spec, bad)


def test_every_public_name_resolves():
    import ladlasso

    missing = [name for name in ladlasso.__all__ if not hasattr(ladlasso, name)]
    assert missing == []


def test_stacked_objective_matches_the_single_kernel():
    spec = make_problem(seed=7, d=4, m=30, lam=0.3)
    x, y, lam = spec.data.x, spec.data.y, spec.lambda_eff
    bs = np.random.default_rng(7).uniform(-5, 5, (40, 4))
    bs[0] = 0.0
    stacked = objective_values(x, y, lam, bs)
    single = np.array([objective_value(x, y, lam, b) for b in bs])
    assert stacked.shape == (40,)
    # rounding may differ, by far less than brute force's screening slack
    assert np.abs(stacked - single).max() <= 1e-13 * single.max()

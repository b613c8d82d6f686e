import dataclasses
import tracemalloc

import numpy as np
import pytest

from ladlasso.brute import solve_brute
from ladlasso.datagen import GenSpec, generate
from ladlasso import lp as lp_module
from ladlasso.lp import (
    dump_lp,
    formulate,
    initial_basis,
    simplex_minimize,
    solve_lp,
)
from ladlasso.linesearch import weighted_median_min
from ladlasso.model import GAP_TOL, axis_restriction, evaluate_objective
from util import make_problem, rel_gap, tiny_problem


def embed(lp, beta):
    """Feasible full-space point representing ``beta``; its cost equals the objective."""
    b = np.asarray(beta, dtype=float)
    r = lp.spec.data.y - lp.spec.data.x @ b
    return np.concatenate(
        [np.maximum(b, 0.0), np.maximum(-b, 0.0), np.maximum(r, 0.0), np.maximum(-r, 0.0)]
    )


def test_formulate_single_point():
    spec = tiny_problem([[1.0]], [2.0], 0.5)
    lp = formulate(spec)
    assert list(lp.cost) == [0.5, 0.5, 1.0, 1.0]
    assert lp.constraint_matrix.tolist() == [[1.0, -1.0, 1.0, -1.0]]
    assert list(lp.rhs) == [2.0]
    assert lp.variable_names == ("bp_0", "bn_0", "rp_0", "rn_0")


def test_embedding_is_feasible_with_matching_cost():
    spec = make_problem(seed=7, d=3, m=6, lam=0.2)
    lp = formulate(spec)
    rng = np.random.default_rng(0)
    for _ in range(20):
        beta = rng.uniform(-5, 5, spec.d)
        v = embed(lp, beta)
        assert (v >= 0).all()
        assert np.allclose(lp.constraint_matrix @ v, lp.rhs, atol=1e-12)
        assert lp.cost @ v == pytest.approx(evaluate_objective(spec, beta), rel=1e-12)


def test_zero_embedding_is_the_starting_basis():
    spec = make_problem(seed=8, d=2, m=5, lam=0.1)
    lp = formulate(spec)
    v = embed(lp, np.zeros(spec.d))
    basis = initial_basis(lp)
    nonzero = np.flatnonzero(v > 0)
    assert set(nonzero) <= set(basis)
    # basic values are |y|, split by sign
    assert v[basis].tolist() == pytest.approx(np.abs(lp.rhs).tolist())


def test_near_zero_penalty_fits_exactly():
    spec = tiny_problem([[1.0]], [2.0], 0.0001)
    res = solve_lp(spec)
    assert res.converged
    assert res.beta.beta[0] == pytest.approx(2.0, abs=1e-9)
    assert res.objective == pytest.approx(0.0002, rel=1e-9)


def test_heavy_penalty_shrinks_to_zero():
    spec = make_problem(seed=10, d=2, m=6, lam=0.1)
    lam_big = float(np.abs(spec.data.x).sum(axis=0).max()) * 1.01
    big = make_problem(seed=10, d=2, m=6, lam=lam_big)
    res = solve_lp(big)
    assert np.allclose(res.beta.beta, 0.0, atol=1e-12)
    assert res.objective == pytest.approx(np.abs(big.data.y).sum(), rel=1e-12)


def test_matches_brute_force_on_200_instances():
    worst = 0.0
    for i in range(200):
        d = 1 + i % 3
        m = 4 + i % 7
        lam = (0.01, 0.1, 1.0)[i % 3]
        spec = make_problem(seed=2000 + i, d=d, m=m, lam=lam)
        reference = solve_brute(spec)
        res = solve_lp(spec)
        assert res.converged
        worst = max(worst, rel_gap(res.objective, reference.objective))
    assert worst < 1e-7


def test_lambda_zero_with_fewer_rows_than_columns():
    # every row fits at the optimum, so the prices scale with lambda_eff =
    # 1e-9: priced against an absolute 1e-9 the simplex reported convergence
    # 1.0% above the optimum (0.80 on other instances); the optimum is 1.1e-8
    # here, where rounding alone puts the solvers 1.6e-7 apart
    spec = make_problem(seed=10, d=4, m=3, lam=0.0)
    res = solve_lp(spec)
    assert res.converged
    assert rel_gap(res.objective, solve_brute(spec).objective) <= GAP_TOL


def test_complementarity_of_paired_variables():
    for seed in range(30):
        spec = make_problem(seed=seed, d=2, m=6, lam=0.1)
        lp = formulate(spec)
        sol = simplex_minimize(lp)
        assert sol.converged
        d, m = spec.d, spec.m
        bp, bn = sol.x[:d], sol.x[d : 2 * d]
        rp, rn = sol.x[2 * d : 2 * d + m], sol.x[2 * d + m :]
        assert np.minimum(bp, bn).max() <= 1e-9
        assert np.minimum(rp, rn).max() <= 1e-9


@pytest.mark.parametrize("d, m", [(1, 6), (2, 8), (3, 12), (5, 300)])
def test_a_start_at_any_basis_it_passed_resumes_it(d, m, monkeypatch):
    # any basis the simplex passes through is a feasible start: resumed from
    # it, the simplex reaches the same optimum, and from the optimal basis
    # it takes no pivot
    for seed in range(5):
        for lam in (0.01, 0.1, 1.0):
            lp = formulate(make_problem(seed=seed, d=d, m=m, lam=lam))
            cold = simplex_minimize(lp)
            for k in range(cold.pivots + 1):
                with monkeypatch.context() as patch:
                    patch.setattr(lp_module, "MAX_PIVOTS", k)
                    start = simplex_minimize(lp).basis
                resumed = simplex_minimize(lp, start)
                assert resumed.converged
                assert rel_gap(resumed.objective, cold.objective) <= 1e-12, (seed, lam, k)
            assert resumed.pivots == 0 and np.array_equal(resumed.basis, cold.basis)
            assert np.allclose(resumed.x, cold.x, rtol=1e-12, atol=1e-12)


def test_objective_trace_never_increases():
    spec = make_problem(seed=33, d=3, m=10, lam=0.1)
    sol = simplex_minimize(formulate(spec))
    trace = np.array(sol.objective_trace)
    assert (np.diff(trace) <= 1e-9).all()


PIVOT_RULES = ("bland", "dantzig_with_bland_fallback")


def simplex_by_rule(lp, rule, monkeypatch):
    monkeypatch.setattr(lp_module, "PIVOT_RULE", rule)
    return simplex_minimize(lp)


def test_bland_rule_reaches_same_objective(monkeypatch):
    spec = make_problem(seed=34, d=3, m=8, lam=0.1)
    lp = formulate(spec)
    default = simplex_minimize(lp)
    bland = simplex_by_rule(lp, "bland", monkeypatch)
    assert bland.objective == pytest.approx(default.objective, rel=1e-10)


def test_pivot_budget_flags_non_convergence(monkeypatch):
    spec = make_problem(seed=35, d=3, m=10, lam=0.1)
    monkeypatch.setattr(lp_module, "MAX_PIVOTS", 1)
    res = solve_lp(spec)
    assert not res.converged


def test_unbounded_direction_is_an_internal_error():
    # a hand-corrupted cost row makes a coefficient column profitable forever;
    # a well-formed formulation can never do this
    from ladlasso.errors import SimplexError

    spec = tiny_problem([[1.0]], [2.0], 0.5)
    lp = formulate(spec)
    cost = lp.cost.copy()
    cost[:2] = -1.0
    broken = dataclasses.replace(lp, cost=cost)
    with pytest.raises(SimplexError):
        simplex_minimize(broken)


def test_dump_cross_checks_with_external_solver(tmp_path):
    # the dump exists so a third-party LP solver can reproduce the optimum
    linprog = pytest.importorskip("scipy.optimize").linprog
    spec = make_problem(seed=21, d=2, m=6, lam=0.1)
    lp = formulate(spec)
    path = tmp_path / "form.lp"
    dump_lp(lp, path)

    lines = path.read_text().splitlines()
    n_vars, n_rows = int(lines[1].split()[1]), int(lines[1].split()[3])
    cost = [float(v) for v in lines[4].split()]
    rows, rhs = [], []
    for line in lines[6 : 6 + n_rows]:
        cells = line.split()
        assert cells[-2] == "="
        rows.append([float(v) for v in cells[:-2]])
        rhs.append(float(cells[-1]))
    assert len(cost) == n_vars and len(rows) == n_rows

    external = linprog(cost, A_eq=rows, b_eq=rhs, bounds=(0, None), method="highs")
    assert external.status == 0
    ours = simplex_minimize(lp)
    assert ours.objective == pytest.approx(external.fun, rel=1e-9, abs=1e-9)


def test_dump_layout(tmp_path):
    spec = tiny_problem([[1.0, -2.0]], [3.0], 0.25)
    path = tmp_path / "form.lp"
    dump_lp(formulate(spec), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "LADLASSO-LP 1"
    assert lines[1] == "vars 6 rows 1"
    assert lines[3] == "minimize"
    assert lines[5] == "subject-to"
    assert lines[-1] == "bounds all >= 0"
    # cost row round-trips
    assert [float(v) for v in lines[4].split()] == [0.25, 0.25, 0.25, 0.25, 1.0, 1.0]
    row = lines[6].split()
    assert row[-2] == "="
    assert float(row[-1]) == 3.0


def _assert_complementary(sol, d, m):
    bp, bn = sol.x[:d], sol.x[d : 2 * d]
    rp, rn = sol.x[2 * d : 2 * d + m], sol.x[2 * d + m :]
    assert np.minimum(bp, bn).max() <= 1e-9
    assert np.minimum(rp, rn).max() <= 1e-9


# (seed, d, m, pivot rule, pivots, objective) as the dense tableau with a
# min-ratio test recorded them
PINNED_PIVOT_SEQUENCES = [
    (41, 3, 12, "dantzig_with_bland_fallback", 10, 41.73810886196885),
    (42, 5, 200, "dantzig_with_bland_fallback", 117, 454.0286665176941),
    (43, 5, 400, "dantzig_with_bland_fallback", 265, 874.7759237365002),
    (44, 5, 200, "bland", 463, 449.97922039363345),
]
# the long step's pivots on the same problems, by seed; a drift in pricing, in
# how far a step passes breakpoints or in the lowest-basic-index tie order
# changes them
LONG_STEP_PIVOTS = {41: 7, 42: 17, 43: 27, 44: 49}


@pytest.mark.parametrize("seed,d,m,rule,dense_pivots,objective", PINNED_PIVOT_SEQUENCES)
def test_pivot_sequence_is_pinned(seed, d, m, rule, dense_pivots, objective, monkeypatch):
    spec = make_problem(seed=seed, d=d, m=m, lam=0.1)
    sol = simplex_by_rule(formulate(spec), rule, monkeypatch)
    assert sol.converged
    assert sol.pivots == LONG_STEP_PIVOTS[seed] < dense_pivots
    assert sol.objective == pytest.approx(objective, rel=1e-12)


def test_leaving_ties_are_pinned():
    # every row twice: the twins' breakpoints tie in the long step, which takes
    # the row whose basic variable has the lowest index first, to flip or to
    # leave; the final basis records each choice
    data, _ = generate(GenSpec(m=12, d=3, noise_sigma=1.0, outlier_fraction=0.2, seed=0))
    x, y = data.x.copy(), data.y.copy()
    x[6:], y[6:] = x[:6], y[:6]
    sol = simplex_minimize(formulate(tiny_problem(x, y, 0.1)))
    assert sol.converged
    assert sol.pivots == 3
    assert sol.basis.tolist() == [6, 7, 8, 0, 22, 1, 12, 13, 2, 15, 28, 17]
    assert sol.objective == pytest.approx(5.262172293653451, rel=1e-12)


@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
def test_exact_price_ties_zero_and_duplicate_columns(lam, monkeypatch):
    # a zero column prices both its halves at lambda; a duplicated column prices
    # exactly like its twin, so the entering choice rests on the index tie-break
    data, _ = generate(GenSpec(m=8, d=3, noise_sigma=1.0, outlier_fraction=0.2, seed=3))
    x = data.x.copy()
    x[:, 1] = 0.0
    x[:, 2] = x[:, 0]
    spec = tiny_problem(x, data.y, lam)
    reference = solve_brute(spec)
    for rule in PIVOT_RULES:
        sol = simplex_by_rule(formulate(spec), rule, monkeypatch)
        assert sol.converged
        assert rel_gap(sol.objective, reference.objective) < 1e-9
        _assert_complementary(sol, spec.d, spec.m)
        # the lower-indexed twin wins every tie, so the duplicate never enters
        assert sol.x[2] == sol.x[5] == 0.0


@pytest.mark.parametrize("m", [10, 100, 1000])
def test_one_dimension_is_one_long_step(m):
    # from beta = 0 the first edge is the descent direction of the 1-D problem,
    # and the long step stops at its weighted median: the optimum
    spec = make_problem(seed=80 + m, d=1, m=m, lam=0.1)
    sol = simplex_minimize(formulate(spec))
    assert sol.converged
    assert sol.pivots == 1
    t_star, _ = weighted_median_min(axis_restriction(spec, [0.0], 0))
    assert sol.x[0] - sol.x[1] == pytest.approx(t_star, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
def test_long_steps_through_degenerate_and_tied_breakpoints(lam, monkeypatch):
    # rows with y = 0 put breakpoints at ratio 0, and duplicated rows put two
    # at the same ratio; under both rules the steps pass several of each
    data, _ = generate(GenSpec(m=12, d=3, noise_sigma=1.0, outlier_fraction=0.2, seed=2))
    x, y = data.x.copy(), data.y.copy()
    y[:3] = 0.0
    x[8:], y[8:] = x[3:7], y[3:7]
    spec = tiny_problem(x, y, lam)
    reference = solve_brute(spec)
    for rule in PIVOT_RULES:
        sol = simplex_by_rule(formulate(spec), rule, monkeypatch)
        assert sol.converged
        assert rel_gap(sol.objective, reference.objective) < 1e-9
        _assert_complementary(sol, spec.d, spec.m)


# the long step's pivots by m; the min-ratio test took 66, 603 and 5,941
SCALE_PIVOTS = {100: 19, 1000: 22, 10000: 37}


@pytest.mark.parametrize("m", sorted(SCALE_PIVOTS))
def test_agrees_with_external_solver_at_scale(m):
    linprog = pytest.importorskip("scipy.optimize").linprog
    sparse = pytest.importorskip("scipy.sparse")
    spec = make_problem(seed=60 + m, d=5, m=m, lam=0.1)
    lp = formulate(spec)
    sol = simplex_minimize(lp)
    assert sol.converged
    assert sol.pivots == SCALE_PIVOTS[m]
    _assert_complementary(sol, spec.d, m)

    x = sparse.csr_matrix(spec.data.x)
    eye = sparse.identity(m, format="csr")
    a_eq = sparse.hstack([x, -x, eye, -eye], format="csr")
    external = linprog(lp.cost, A_eq=a_eq, b_eq=lp.rhs, bounds=(0, None), method="highs")
    assert external.status == 0
    assert rel_gap(sol.objective, external.fun) < 1e-9


def test_memory_stays_linear_in_rows():
    # the full-width tableau alone would be 2001 x 4011 doubles, about 64 MB
    spec = make_problem(seed=70, d=5, m=2000, lam=0.1)
    tracemalloc.start()
    try:
        res = solve_lp(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"

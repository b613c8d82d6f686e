from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladlasso.brute import solve_brute
from ladlasso.ccd import ccd_descend, is_axiswise_minimum, solve_ccd
from ladlasso.datagen import GenSpec, generate
from ladlasso.errors import InvalidInputError
from ladlasso.fixtures import ccd_stall_problem, oracle_grid
from ladlasso.linesearch import Bracket, expand_bracket, ternary_min, weighted_median_min
from ladlasso.locus import (
    OUTER_SEARCHES,
    SNAP_SPARE,
    LocusPoint,
    _Certificate,
    _CurveEvaluator,
    _basis_dual,
    _snap,
    _vertex_basis,
    locus_value,
    proven_bracket,
    sample_locus,
    search_axis,
    solve_locus,
)
from ladlasso import lp
from ladlasso.lp import formulate, initial_basis, simplex_minimize, solve_lp
from ladlasso.model import GAP_TOL, Coefficients, Dataset, ProblemSpec, axis_restriction
from ladlasso.model import evaluate_objective
from util import exact_curve, make_problem, rel_gap

ORACLE_GRID = list(oracle_grid(200))


def test_single_variable_matches_median_oracle():
    spec = make_problem(seed=1, d=1, m=9, lam=0.3)
    g = axis_restriction(spec, [0.0], 0)
    _, v_star = weighted_median_min(g)
    res = solve_locus(spec)
    assert res.converged
    assert res.objective == pytest.approx(v_star, rel=1e-8)


def test_curve_value_at_optimal_coordinate_recovers_optimum():
    spec = make_problem(seed=14, d=2, m=8, lam=0.1)
    reference = solve_brute(spec)
    axis = search_axis(spec.data)
    pt = locus_value(spec, axis, float(reference.beta.beta[axis]))
    assert pt.value == pytest.approx(reference.objective, rel=1e-8)


def test_curve_points_are_axiswise_minima_off_axis():
    spec = make_problem(seed=15, d=2, m=8, lam=0.1)
    axis = search_axis(spec.data)
    for t in (0.3, 0.3 + 1e-3):
        pt = locus_value(spec, axis, t)
        assert pt.inner_converged
        assert is_axiswise_minimum(spec, pt.beta, skip=axis)


def test_stall_fixture_is_closed_by_locus_search():
    spec = ccd_stall_problem()
    reference = solve_brute(spec)
    res = solve_locus(spec)
    assert rel_gap(res.objective, reference.objective) < 1e-5


def test_oracle_sweep_small():
    # a slice of the larger acceptance sweep, kept here as a fast regression
    worst = 0.0
    for seed in range(24):
        d = 1 + seed % 3
        spec = make_problem(seed=300 + seed, d=d, m=5 + seed % 7, lam=(0.01, 0.1, 1.0)[seed % 3])
        reference = solve_brute(spec)
        res = solve_locus(spec)
        worst = max(worst, rel_gap(res.objective, reference.objective))
    assert worst < 1e-5


def test_never_worse_than_plain_descent():
    for seed in range(10):
        spec = make_problem(seed=500 + seed, d=2 + seed % 2, m=6, lam=0.1)
        plain = solve_ccd(spec)
        res = solve_locus(spec)
        assert res.objective <= plain.objective + 1e-9


def test_result_is_full_axiswise_minimum():
    for seed in (31, 32, 33):
        spec = make_problem(seed=seed, d=2, m=9, lam=0.1)
        res = solve_locus(spec)
        assert is_axiswise_minimum(spec, res.beta)
        # the searched coordinate sits on its own 1-D minimiser after the snap
        axis = search_axis(spec.data)
        g = axis_restriction(spec, res.beta, axis)
        t_med, _ = weighted_median_min(g)
        assert abs(t_med - res.beta.beta[axis]) <= 1e-9 * (1 + abs(t_med))


def test_unknown_outer_search_is_rejected():
    with pytest.raises(InvalidInputError, match="unknown outer search 'bisection'"):
        solve_locus(make_problem(seed=41, d=2, m=8, lam=0.1), "bisection")


def test_outer_searches_agree():
    for seed in (41, 42, 43):
        spec = make_problem(seed=seed, d=2, m=8, lam=0.1)
        vt = solve_locus(spec, "ternary").objective
        vq = solve_locus(spec, "quadrature").objective
        assert vq == pytest.approx(vt, rel=1e-6, abs=1e-8)


def test_search_axis_is_the_most_influential_column():
    spec = make_problem(seed=45, d=3, m=6, lam=0.1)
    influence = np.abs(spec.data.x).sum(axis=0)
    assert search_axis(spec.data) == int(np.argmax(influence))
    # column l1 norms 1.5, 3, 3: ties go to the lowest index
    tied = Dataset(np.array([[0.5, 1.0, -1.0], [1.0, 2.0, 2.0]]), np.array([1.0, 2.0]))
    assert search_axis(tied) == 1


class TestSampleLocus:
    def test_single_variable_traces_axis_restriction(self):
        spec = make_problem(seed=51, d=1, m=8, lam=0.2)
        g = axis_restriction(spec, [0.0], 0)
        pts = sample_locus(spec, 0, Bracket(-3.0, 3.0), 9)
        for pt in pts:
            assert pt.value == pytest.approx(g(pt.t), rel=1e-12)

    def test_requires_three_points(self):
        spec = make_problem(seed=51, d=1, m=8, lam=0.2)
        with pytest.raises(Exception):
            sample_locus(spec, 0, Bracket(-1.0, 1.0), 2)

    def test_values_unimodal_and_coordinates_monotone(self):
        # empirical check of the halting-curve structure: sample the segment
        # between the plain-descent stall point and the optimum
        spec = make_problem(seed=52, d=2, m=8, lam=0.1)
        reference = solve_brute(spec)
        axis = search_axis(spec.data)
        t_star = float(reference.beta.beta[axis])
        t_stall = float(solve_ccd(spec).beta.beta[axis])
        scale = 1.0 + abs(t_star)
        if abs(t_stall - t_star) > 1e-6 * scale:
            window = Bracket(min(t_stall, t_star), max(t_stall, t_star))
        else:
            window = Bracket(t_star - 1e-3 * scale, t_star + 1e-3 * scale)
        pts = sample_locus(spec, axis, window, 33)
        values = np.array([pt.value for pt in pts])
        diffs = np.diff(values)
        signs = np.sign(diffs[np.abs(diffs) > 1e-9])
        flips = int(np.sum(signs[1:] != signs[:-1])) if signs.size else 0
        assert flips <= 1

        free = [j for j in range(spec.d) if j != axis]
        for j in free:
            path = np.array([pt.beta.beta[j] for pt in pts])
            steps = np.diff(path)
            slack = 1e-6 * (1 + np.abs(path).max())
            assert (steps >= -slack).all() or (steps <= slack).all()


@lru_cache(maxsize=None)
def _oracle_problem(i, lam_zero):
    """Oracle-grid instance ``i`` at its own lambda or at 0, and its brute-force optimum."""
    gen, lam = ORACLE_GRID[i]
    data, _ = generate(gen)
    spec = ProblemSpec(data, 0.0 if lam_zero else lam)
    return spec, solve_brute(spec)


@settings(max_examples=80, deadline=None)
@given(
    i=st.integers(0, len(ORACLE_GRID) - 1),
    lam_zero=st.booleans(),
    scale=st.sampled_from((0.0, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0)),
    data=st.data(),
)
def test_certificate_never_below_the_true_gap(i, lam_zero, scale, data):
    spec, reference = _oracle_problem(i, lam_zero)
    step = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=spec.d, max_size=spec.d))
    beta = reference.beta.beta + scale * np.array(step)
    cert = _Certificate(spec)
    cert.offer(beta[None])
    assert cert.value == evaluate_objective(spec, cert.point)
    assert cert.value <= evaluate_objective(spec, beta)
    assert cert.gap >= (cert.value - reference.objective) / cert.value - 1e-12


def test_certificate_holds_at_the_brute_force_optimum():
    worst = 0.0
    for i in range(len(ORACLE_GRID)):
        for lam_zero in (False, True):
            spec, reference = _oracle_problem(i, lam_zero)
            cert = _Certificate(spec)
            cert.offer(reference.beta.beta[None])
            assert cert.value <= reference.objective
            worst = max(worst, cert.gap)
    assert worst <= GAP_TOL


def test_oracle_sweep_is_certified_at_its_lambda_and_at_zero():
    # every locus result on the sweep is converged, and no converged result
    # is more than GAP_TOL above the brute-force optimum
    for i in range(len(ORACLE_GRID)):
        for lam_zero in (False, True):
            spec, reference = _oracle_problem(i, lam_zero)
            for outer_search in OUTER_SEARCHES:
                res = solve_locus(spec, outer_search)
                assert res.converged, (i, lam_zero, outer_search)
                gap = (res.objective - reference.objective) / reference.objective
                assert gap <= GAP_TOL, (i, lam_zero, outer_search)


@pytest.mark.parametrize("outer_search", OUTER_SEARCHES)
@pytest.mark.parametrize(
    "d, m, lam, seed",
    [
        (3, 4, 0.1, 2947489538003098819),
        (3, 12, 0.1, 9206505262935403616),
        (3, 12, 1.0, 556364393903137014),
        (3, 12, 0.01, 3667430575337439012),  # GOLDEN_MISS, below
    ],
)
def test_recorded_misses_are_certified(d, m, lam, seed, outer_search):
    # benchmark instances on which the locus search once missed the optimum,
    # the first three while still reporting convergence
    spec = make_problem(seed=seed, d=d, m=m, lam=lam)
    res = solve_locus(spec, outer_search)
    assert res.converged
    assert rel_gap(res.objective, solve_brute(spec).objective) <= GAP_TOL


@pytest.mark.parametrize("d", (4, 5, 6, 8))
def test_no_false_certificate_beyond_the_oracle(d):
    # beyond brute force's reach the simplex is the reference; a locus result
    # may be uncertified, but never certified while above the optimum
    for seed in range(10):
        spec = make_problem(seed=seed, d=d, m=10, lam=0.1)
        optimum = solve_lp(spec).objective
        for outer_search in OUTER_SEARCHES:
            res = solve_locus(spec, outer_search)
            above = (res.objective - optimum) / max(abs(optimum), 1e-30)
            assert not (res.converged and above > GAP_TOL), (seed, outer_search, above)


@pytest.mark.parametrize("lam", (0.1, 10.0))
def test_degenerate_optimum_is_certified(lam):
    # noiseless data puts every row through the optimum, more planes than d
    for d in (1, 2, 3, 5):
        for m in (10, 30):
            spec = make_problem(seed=60 + d, d=d, m=m, lam=lam, noise=0.0, outliers=0.0)
            optimum = solve_lp(spec)
            cert = _Certificate(spec)
            cert.offer(optimum.beta.beta[None])
            assert rel_gap(cert.value, optimum.objective) <= 1e-12
            assert cert.gap <= GAP_TOL, (d, m)
            assert solve_locus(spec).converged, (d, m)


@pytest.mark.parametrize("outer_search", OUTER_SEARCHES)
@pytest.mark.parametrize(
    "d, m, lam, seed",
    [
        (3, 12, 1.0, 3808761729700978283),
        (7, 24, 0.1, 7094737372910612495),
        (8, 40, 0.1, 4287035506874869768),
    ],
)
def test_early_stop_keeps_the_lowest_vertex_across_axes(d, m, lam, seed, outer_search):
    # benchmark instances on which ranking the axes by probe value, not by
    # snapped vertex, discarded a later axis's certified vertex
    spec = make_problem(seed=seed, d=d, m=m, lam=lam)
    res = solve_locus(spec, outer_search)
    assert res.converged
    assert rel_gap(res.objective, solve_lp(spec).objective) <= GAP_TOL


@pytest.mark.parametrize("outer_search", OUTER_SEARCHES)
def test_a_probe_above_the_best_can_snap_to_the_optimum(outer_search):
    # a benchmark instance whose probe descents near the optimum stall above
    # the curve, so the search converges elsewhere; snapping only the lowest
    # probe left it uncertified 0.6% above the optimum, while a higher probe's
    # snap is the optimal vertex
    spec = make_problem(seed=5426622853555195582, d=3, m=12, lam=1.0)
    res = solve_locus(spec, outer_search)
    assert res.converged
    assert rel_gap(res.objective, solve_lp(spec).objective) <= GAP_TOL


@pytest.mark.parametrize("outer_search", OUTER_SEARCHES)
@pytest.mark.parametrize("m, seed", [(26, 19), (26, 36), (40, 11), (40, 27), (40, 37)])
def test_recorded_d8_misses_are_certified(m, seed, outer_search):
    # noisy d=8 instances whose search ran to the bracket tolerance and ended
    # uncertified, above the optimum
    spec = make_problem(seed=seed, d=8, m=m, lam=0.1)
    res = solve_locus(spec, outer_search)
    assert res.converged
    assert rel_gap(res.objective, solve_lp(spec).objective) <= GAP_TOL


def _offer_halting_point(curve, spec):
    """Replay ``solve_locus``'s first offer: the halting point of unfrozen
    descent from zero, at its own coordinate on the axis; whether it certifies."""
    halt = ccd_descend(spec, np.zeros(spec.d), line_steps=True)
    t = float(halt.beta.beta[curve.axis])
    curve.seen.append(LocusPoint(t, halt.beta, halt.objective, halt.converged))
    return curve.certified()


def test_search_stops_at_the_first_certified_round():
    # the first instance (a benchmark instance of
    # test_stalled_descents_are_pivoted_past) certifies at the halting point,
    # the second once the chop has valued its midpoint, the probe at c, the
    # third after rounds
    for problem, offers in (
        (dict(seed=4126655609229043257, d=5, m=300, lam=0.1), 1),
        (dict(seed=3, d=3, m=12, lam=0.1), 2),
        (dict(seed=6, d=3, m=12, lam=0.1), None),
    ):
        spec = make_problem(**problem)
        res = solve_locus(spec)
        assert res.converged
        # rerun the first axis, certifying at the halting point, then on the
        # bracket proven from the certificate's best value at the chop's
        # midpoint and after each round: the solve stopped at the first check
        # that certified, long before the bracket tolerance
        curve = _CurveEvaluator(spec, search_axis(spec.data))
        checks = [_offer_halting_point(curve, spec)]

        def done():
            checks.append(curve.certified())
            return checks[-1]

        rounds = 0
        if not checks[0]:
            bracket = expand_bracket(curve, proven_bracket(spec, curve.axis, curve.cert.value))
            rounds = ternary_min(curve, bracket, done).rounds
        assert checks[-1] and not any(checks[:-1])
        assert len(checks) == offers if offers else len(checks) > 2
        assert rounds == res.iterations == max(len(checks) - 2, 0) < 10
        assert len(curve.seen) == res.objective_evals
        assert curve.cert.value == res.objective


@pytest.mark.parametrize("outer_search", OUTER_SEARCHES)
def test_a_certified_halting_point_skips_the_search(outer_search, monkeypatch):
    import ladlasso.locus as locus

    descents, calls = [], []
    real_descend = locus.ccd_descend

    def descend(spec, start, frozen_axis=None, line_steps=False):
        descents.append((np.array(start, dtype=float), frozen_axis, line_steps))
        return real_descend(spec, start, frozen_axis, line_steps)

    def counted(name):
        real = getattr(locus, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(locus, "ccd_descend", descend)
    for name in ("proven_bracket", "expand_bracket", "ternary_min", "quadrature_min"):
        monkeypatch.setattr(locus, name, counted(name))
    # a benchmark instance whose halting point certifies: one descent,
    # unfrozen and from zero, and no bracket or search
    spec = make_problem(seed=4126655609229043257, d=5, m=300, lam=0.1)
    res = solve_locus(spec, outer_search)
    assert res.converged and res.iterations == 0 and res.objective_evals == 1
    assert rel_gap(res.objective, solve_lp(spec).objective) <= GAP_TOL
    [(start, frozen, line_steps)] = descents
    assert not start.any() and frozen is None and line_steps
    assert calls == []
    # a halting miss goes on to the proven bracket, its guard's two ends and
    # midpoint, the column's least-squares coefficient c, and the search,
    # which certifies once it has valued that midpoint, reused
    descents.clear()
    spec = make_problem(seed=3, d=3, m=12, lam=0.1)
    res = solve_locus(spec, outer_search)
    assert res.converged and res.iterations == 0 and res.objective_evals == 4
    axis = search_axis(spec.data)
    rest = np.delete(spec.data.x, axis, axis=1)
    col = spec.data.x[:, axis]
    p = col - rest @ np.linalg.lstsq(rest, col, rcond=None)[0]
    assert [frozen for _, frozen, _ in descents] == [None, axis, axis, axis]
    assert not descents[0][0].any()
    lo, hi, mid = (start[axis] for start, _, _ in descents[1:])
    assert lo < mid < hi and mid == 0.5 * (lo + hi)
    assert mid == pytest.approx(p @ spec.data.y / (p @ p), rel=1e-12)
    assert calls == ["proven_bracket", "expand_bracket", f"{outer_search}_min"]


def _counted_simplex(monkeypatch):
    """Record the start and the solution of each simplex the certificate runs."""
    import ladlasso.locus as locus

    runs = []

    def counted(form, start=None):
        runs.append((start, simplex_minimize(form, start)))
        return runs[-1][1]

    monkeypatch.setattr(locus, "simplex_minimize", counted)
    return runs


def _halting_vertex_basis(curve, spec):
    """The own basis of the snapped halting point, the certificate's first offer."""
    _, vertex, planes = _snap(spec, curve.seen[0].beta.beta[None])
    return _vertex_basis(spec, vertex, planes)


def test_a_certifying_own_basis_runs_no_simplex(monkeypatch):
    # a benchmark-sized instance whose snapped halting vertex's own basis
    # bounds it within GAP_TOL: the solve ends there, with no simplex
    runs = _counted_simplex(monkeypatch)
    spec = make_problem(seed=0, d=5, m=300, lam=0.1)
    curve = _CurveEvaluator(spec, search_axis(spec.data))
    assert _offer_halting_point(curve, spec)
    assert np.array_equal(curve.cert.basis, _halting_vertex_basis(curve, spec))
    assert curve.cert.bound == float(spec.data.y @ _basis_dual(spec, curve.cert.basis))
    res = solve_locus(spec)
    assert res.converged and res.objective_evals == 1
    assert rel_gap(res.objective, solve_lp(spec).objective) <= GAP_TOL
    assert runs == []


def test_an_own_basis_that_falls_short_starts_the_simplex_there(monkeypatch):
    # a halting miss: the simplex runs once, started at the snapped halting
    # vertex's own basis, and reaches the cold optimum; its final basis
    # gives the bound
    runs = _counted_simplex(monkeypatch)
    spec = make_problem(seed=3, d=3, m=12, lam=0.1)
    curve = _CurveEvaluator(spec, search_axis(spec.data))
    assert not _offer_halting_point(curve, spec)
    [(start, sol)] = runs
    assert np.array_equal(start, _halting_vertex_basis(curve, spec))
    assert sol.converged and sol.pivots > 0
    assert rel_gap(sol.objective, simplex_minimize(formulate(spec)).objective) <= 1e-12
    assert curve.cert.basis is sol.basis
    assert curve.cert.bound == float(spec.data.y @ _basis_dual(spec, sol.basis))


def test_all_singular_snaps_land_on_the_origin(monkeypatch):
    # every row's normal is a multiple of (1, 1), and the point is nearer all
    # six rows than either axis, so every snap subset is two rows: singular.
    # The snap falls back to the origin, on its two coefficient planes, whose
    # own basis is the sign-split start; it falls short, so the one simplex
    # run starts there
    runs = _counted_simplex(monkeypatch)
    c = np.arange(1.0, 7.0)
    noise = 1e-3 * np.array([1.0, -2.0, 1.0, 3.0, -1.0, 2.0])
    spec = ProblemSpec(Dataset(np.column_stack((c, c)), 20.0 * c + noise), 0.1)
    beta = np.array([[10.0, 10.0]])
    f_origin, vertex, planes = _snap(spec, beta)
    assert f_origin == evaluate_objective(spec, np.zeros(2))
    assert not vertex.any() and planes.tolist() == [6, 7]
    assert np.array_equal(_vertex_basis(spec, vertex, planes), initial_basis(formulate(spec)))
    cert = _Certificate(spec)
    cert.offer(beta)
    [(start, sol)] = runs
    assert np.array_equal(start, initial_basis(formulate(spec)))
    assert sol.converged and sol.pivots == 1
    assert cert.bound == float(spec.data.y @ _basis_dual(spec, sol.basis))
    assert cert.bound == pytest.approx(2.0077, rel=1e-12)
    assert cert.value == evaluate_objective(spec, beta[0])
    assert cert.gap == pytest.approx(1.14428e-3, rel=1e-4)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    case=st.sampled_from(("parallel rows", "zero row", "duplicate column", "m < d")),
    d=st.integers(1, 4),
    lam=st.sampled_from((0.0, 0.1, 1.0)),
    scale=st.sampled_from((0.0, 0.1, 1.0, 10.0)),
    data=st.data(),
)
def test_degenerate_snaps_land_on_a_vertex_with_a_working_basis(seed, case, d, lam, scale, data):
    # the snap of any point is a vertex on its d planes, at a finite
    # objective, and the simplex started at that vertex's own basis reaches
    # the cold optimum; where d > 1, parallel rows through the point often
    # make every subset of its nearest planes singular, and the snap falls
    # back to the origin
    if case == "m < d":
        d = max(d, 2)
        m = data.draw(st.integers(1, d - 1))
    else:
        m = d + data.draw(st.integers(1, 8))
    spec = make_problem(seed=seed, d=d, m=m, lam=lam)
    rng = np.random.default_rng(seed)
    beta = scale * rng.uniform(-1.0, 1.0, d)
    x, y = spec.data.x.copy(), spec.data.y.copy()
    if case == "parallel rows":
        k = min(spec.m, d + SNAP_SPARE)
        scales = rng.uniform(0.5, 2.0, k) * rng.choice((-1.0, 1.0), k)
        x[:k] = scales[:, None] * x[0]
        y[:k] = x[:k] @ beta + 1e-3 * rng.standard_normal(k)
    elif case == "zero row":
        x[rng.integers(spec.m)] = 0.0
    elif case == "duplicate column":
        x = np.hstack((x, x[:, :1]))
        beta = np.append(beta, 0.0)
    spec = ProblemSpec(Dataset(x, y), lam)
    f, vertex, planes = _snap(spec, beta[None])
    assert np.isfinite(f) and f == evaluate_objective(spec, vertex)
    assert len(set(planes.tolist())) == spec.d
    rows, cols = planes[planes < spec.m], planes[planes >= spec.m] - spec.m
    slack = 1e-9 * (np.abs(y[rows]) + np.abs(x[rows]) @ np.abs(vertex) + 1.0)
    assert (np.abs(x[rows] @ vertex - y[rows]) <= slack).all()
    assert (np.abs(vertex[cols]) <= 1e-9 * (np.abs(vertex).max() + 1.0)).all()
    form = formulate(spec)
    sol = simplex_minimize(form, _vertex_basis(spec, vertex, planes))
    assert sol.converged
    assert rel_gap(sol.objective, simplex_minimize(form).objective) <= 1e-9


def test_the_benchmark_certificate_rarely_runs_the_simplex(monkeypatch):
    # counts, not timings: over the first round of the benchmark's
    # oracle_small pool at seed 7, the snapped halting vertex's own basis
    # certifies all but at most two solves
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS, instance_pool

    runs = _counted_simplex(monkeypatch)
    wl = WORKLOADS["oracle_small"]
    pool = instance_pool(wl, 7, 1)
    for inst in pool:
        gen = GenSpec(
            m=inst.m,
            d=inst.d,
            noise_sigma=wl.noise_sigma,
            outlier_fraction=wl.outlier_fraction,
            seed=inst.data_seed,
        )
        assert solve_locus(ProblemSpec(generate(gen)[0], inst.lam)).converged
    assert len(pool) == 27 and len(runs) <= 2


@pytest.mark.parametrize("outer_search", OUTER_SEARCHES)
def test_a_loose_search_past_an_uncertified_halting_point_is_caught(outer_search, monkeypatch):
    # negative control: where the halting point does not certify, a sloppy
    # outer search must leave visible gaps
    import ladlasso.linesearch as linesearch

    monkeypatch.setattr(linesearch, "TOLERANCE", 0.9)
    gaps = []
    for seed in range(12):
        spec = make_problem(seed=seed, d=5, m=300, lam=0.1)
        if _offer_halting_point(_CurveEvaluator(spec, search_axis(spec.data)), spec):
            continue
        res = solve_locus(spec, outer_search)
        gaps.append(rel_gap(res.objective, solve_lp(spec).objective))
    assert len(gaps) >= 4
    assert sum(gap >= 1e-5 for gap in gaps) > len(gaps) / 2, gaps


@pytest.mark.parametrize("outer_search", OUTER_SEARCHES)
def test_an_exact_fit_certifies_at_the_first_probe(outer_search, monkeypatch):
    # y = 0: the probe at c = 0 fits exactly (U = 0) and certifies at gap 0,
    # so no zero-width bracket is built
    import ladlasso.locus as locus

    def unguarded(*args, **kwargs):
        raise AssertionError("a certified first probe needs no bracket guard")

    monkeypatch.setattr(locus, "expand_bracket", unguarded)
    data = make_problem(seed=4, d=3, m=8, lam=0.1).data
    for x in (data.x, np.hstack((data.x, data.x[:, :1]))):  # then the search axis, 0, duplicated
        spec = ProblemSpec(Dataset(x, np.zeros(len(data.y))), 0.1)
        res = solve_locus(spec, outer_search)
        assert res.converged and res.iterations == 0 and res.objective_evals == 1
        assert res.objective == 0.0 and not res.beta.beta.any()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    d=st.integers(1, 5),
    extra=st.integers(1, 30),
    lam=st.sampled_from((0.0, 0.01, 1.0, 10.0)),
    scale=st.sampled_from((0.1, 1.0, 100.0)),
    data=st.data(),
)
def test_coordinate_bound_holds_at_every_beta(seed, d, extra, lam, scale, data):
    # |beta_a - c| <= f(beta) ||p||_inf / ||p||^2 at any beta, with p column a
    # less its projection on the others (here by lstsq, not the helper's QR)
    # and c = p . y / ||p||^2; where column a is duplicated p vanishes, and
    # lambda_eff |beta_a| <= f(beta) holds instead; the helper's bracket,
    # valued at beta, holds beta_a
    spec = make_problem(seed=seed, d=d, m=d + extra, lam=lam)
    duplicate = data.draw(st.booleans())
    if duplicate:  # column 0 again, as column d
        x = spec.data.x
        spec = ProblemSpec(Dataset(np.hstack((x, x[:, :1])), spec.data.y), lam)
    x, y, d = spec.data.x, spec.data.y, spec.d
    beta = scale * np.array(data.draw(st.lists(st.floats(-1, 1), min_size=d, max_size=d)))
    f = evaluate_objective(spec, beta)
    a = data.draw(st.integers(0, d - 1))
    if duplicate and a in (0, d - 1):
        c, bound = 0.0, f / spec.lambda_eff
    else:
        rest = np.delete(x, a, axis=1)
        p = x[:, a] - rest @ np.linalg.lstsq(rest, x[:, a], rcond=None)[0]
        c = p @ y / (p @ p)
        bound = f * np.abs(p).max() / (p @ p)
    slack = 1e-9 * (abs(c) + bound + abs(beta[a]))
    assert abs(beta[a] - c) <= bound + slack
    bracket = proven_bracket(spec, a, f)
    assert bracket.lo - slack <= beta[a] <= bracket.hi + slack


def test_a_rounding_projection_of_a_duplicate_column_is_charged():
    # a case Hypothesis drew for the test above: column 0 duplicated, so p
    # is rounding noise, yet ||p||^2 = 1.6e-31 lies above the in-span
    # threshold; uncharged for p's defect the bracket was [-1.6e16, -5.0e14]
    # and excluded beta_0 = 0
    spec = make_problem(seed=93664, d=1, m=2, lam=0.0)
    x = spec.data.x
    spec = ProblemSpec(Dataset(np.hstack((x, x[:, :1])), spec.data.y), 0.0)
    beta = np.array([0.0, 1.0])
    bracket = proven_bracket(spec, 0, evaluate_objective(spec, beta))
    assert bracket.lo <= 0.0 <= bracket.hi


def test_proven_bracket_holds_the_brute_force_optimum():
    # U = f*, the tightest bound the proof allows
    for i in range(len(ORACLE_GRID)):
        for lam_zero in (False, True):
            spec, reference = _oracle_problem(i, lam_zero)
            axis = search_axis(spec.data)
            bracket = proven_bracket(spec, axis, reference.objective)
            assert bracket.lo <= reference.beta.beta[axis] <= bracket.hi, (i, lam_zero)


@pytest.mark.parametrize("lam", (0.1, 0.0))
@pytest.mark.parametrize("case", ("duplicate", "m < d"))
def test_column_in_the_others_span_gets_a_bracket_centred_on_zero(case, lam):
    # p vanishes, so c = 0 and the half-width is U / lambda_eff: lambda_eff
    # |beta*_a| <= lambda_eff ||beta*||_1 <= f* <= U
    if case == "duplicate":
        data = make_problem(seed=4, d=2, m=10, lam=lam).data
        data = Dataset(np.hstack((data.x, data.x[:, :1])), data.y)
    else:
        data = make_problem(seed=5, d=4, m=3, lam=lam).data
    spec = ProblemSpec(data, lam)
    # U is the certificate's best value once offered the halting point, as
    # in solve_locus
    curve = _CurveEvaluator(spec, search_axis(spec.data))
    _offer_halting_point(curve, spec)
    bracket = proven_bracket(spec, curve.axis, curve.cert.value)
    assert bracket.mid == 0.0
    reference = solve_brute(spec)
    assert bracket.lo <= reference.beta.beta[curve.axis] <= bracket.hi
    for outer_search in OUTER_SEARCHES:
        res = solve_locus(spec, outer_search)
        assert res.converged, outer_search
        assert rel_gap(res.objective, reference.objective) <= GAP_TOL, outer_search


@pytest.mark.parametrize("outer_search", OUTER_SEARCHES)
def test_lambda_zero_with_fewer_rows_than_columns_is_certified(outer_search):
    # every row fits at the optimum, so the simplex's prices scale with
    # lambda_eff = 1e-9: priced against an absolute 1e-9 its basis stopped
    # 1.0% above the optimum, and the bound read off it certified nothing
    spec = make_problem(seed=10, d=4, m=3, lam=0.0)
    res = solve_locus(spec, outer_search)
    assert res.converged
    assert rel_gap(res.objective, solve_brute(spec).objective) <= GAP_TOL


@pytest.mark.parametrize("lam_zero", (False, True))
def test_basis_dual_bounds_the_brute_force_optimum(lam_zero, monkeypatch):
    # the dual point of every basis the simplex passes through, optimal or
    # not, bounds the brute-force optimum from below, and that of its final
    # basis meets it; at lambda = 0 (lambda_eff = 1e-9) the constraint
    # |X^T u| <= lambda_eff sits at the rounding level of X^T u, so scaling u
    # into it costs up to about 1e-6 of the bound, which must still certify
    for i in range(len(ORACLE_GRID)):
        spec, reference = _oracle_problem(i, lam_zero)
        form = formulate(spec)
        for k in range(simplex_minimize(form).pivots + 1):
            with monkeypatch.context() as patch:
                patch.setattr(lp, "MAX_PIVOTS", k)
                u = _basis_dual(spec, simplex_minimize(form).basis)
            bound = float(spec.data.y @ u)
            assert bound <= reference.objective * (1.0 + 1e-12), (i, k)
        assert rel_gap(bound, reference.objective) <= (GAP_TOL if lam_zero else 1e-12), i


@pytest.mark.parametrize(
    "m, seed",
    [(300, 4126655609229043257), (300, 7024217522738290793), (600, 7685792467256065173)],
)
def test_stalled_descents_are_pivoted_past(m, seed):
    # benchmark instances (d=5, lambda 0.1) whose probe descents stall above
    # the curve, so the best probe stops improving: without pivots the first
    # and last searched all five axes and ended uncertified, and the middle
    # one took a second axis (260, 70 and 260 rounds)
    spec = make_problem(seed=seed, d=5, m=m, lam=0.1)
    res = solve_locus(spec)
    assert res.converged
    assert rel_gap(res.objective, solve_lp(spec).objective) <= 1e-12
    assert res.iterations < 30


@pytest.mark.parametrize("d", range(3, 9))
def test_exact_curve_is_convex(d):
    # the curve is a partial minimum of a convex function, so convex in t
    # for any d (the chop relies on it); probe descents can stall above it
    for k, lam in enumerate((0.01, 0.1, 1.0)):
        spec = make_problem(seed=100 * d + k, d=d, m=6 + 2 * d + k, lam=lam)
        axis = search_axis(spec.data)
        t_star = solve_lp(spec).beta.beta[axis]
        ts = t_star + (1.0 + abs(t_star)) * np.linspace(-1.0, 1.0, 33)
        values = np.array([exact_curve(spec, axis, float(t)) for t in ts])
        second = values[:-2] - 2.0 * values[1:-1] + values[2:]
        assert second.min() >= -1e-12 * np.abs(values).max(), (d, k)


# a benchmark instance whose probe descents from the simplex's vertex, with
# only the axis moved, stall up to 0.77 above the curve between its optimum
# (t = 3.157) and t = 4.4: the golden-section chop followed that false dip
# to t = 4.47 and ended uncertified 9.2e-3 above the optimum, until probes
# started from the vertex's edges (test_recorded_misses_are_certified)
GOLDEN_MISS = dict(seed=3667430575337439012, d=3, m=12, lam=0.01)


def test_edge_starts_lie_on_the_exact_curve_near_the_optimum():
    spec = make_problem(**GOLDEN_MISS)
    axis = search_axis(spec.data)
    curve = _CurveEvaluator(spec, axis)
    curve.cert.offer(np.zeros((1, spec.d)))  # runs the simplex
    vertex = curve.cert.warm.beta
    for t in (3.3, 3.83, 4.22):
        start = curve._edge_start(t).beta
        assert start[axis] == pytest.approx(t, rel=1e-15)
        assert rel_gap(evaluate_objective(spec, start), exact_curve(spec, axis, t)) <= 1e-12
        # from the vertex with only the axis moved the descent stalls above it
        moved = vertex.copy()
        moved[axis] = t
        stalled = locus_value(spec, axis, t, Coefficients(moved), line_steps=True).value
        assert stalled > exact_curve(spec, axis, t) + 0.1


def test_a_seen_coordinate_costs_no_descent(monkeypatch):
    import ladlasso.locus as locus

    calls = []
    real = locus.locus_value

    def counted(spec, axis, t, *args, **kwargs):
        calls.append(t)
        return real(spec, axis, t, *args, **kwargs)

    monkeypatch.setattr(locus, "locus_value", counted)
    spec = make_problem(seed=4, d=3, m=12, lam=0.1)
    curve = _CurveEvaluator(spec, 0)
    _offer_halting_point(curve, spec)  # as solve_locus does, before any probe
    halt = curve.seen[0].t
    first = curve(1.25)
    assert curve(1.25) == first
    assert curve(float(np.nextafter(1.25, 2.0))) == first  # an ulp off: rounding
    assert curve(-0.5) != first
    assert calls == [1.25, -0.5]
    assert [pt.t for pt in curve.seen] == [halt, 1.25, -0.5]


@pytest.mark.parametrize("m", (400, 800))
def test_exact_results_at_lambda_zero_are_certified(m):
    # at lambda = 0 the dual box is ||X^T u||_inf <= 1e-9; summed in floating
    # point over m rows, X^T u cost the bound up to 3.1e-5 at m = 800
    for seed in range(3):
        spec = make_problem(seed=seed, d=5, m=m, lam=0.0)
        res = solve_locus(spec)
        assert res.converged, seed
        assert rel_gap(res.objective, solve_lp(spec).objective) <= GAP_TOL

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladlasso.errors import DegenerateInputError, UnboundedDirectionError
from ladlasso import linesearch
from ladlasso.linesearch import (
    GOLDEN,
    PROBES,
    Bracket,
    PiecewiseLinear1D,
    expand_bracket,
    quadrature_min,
    ternary_min,
    weighted_median_min,
)


def pwl(pairs, constant=0.0):
    locs, weights = zip(*pairs)
    return PiecewiseLinear1D(np.array(locs), np.array(weights), constant)


@st.composite
def random_pwl(draw):
    n = draw(st.integers(1, 8))
    locs = [draw(st.floats(-50, 50)) for _ in range(n)]
    weights = [draw(st.floats(0.01, 5)) for _ in range(n)]
    constant = draw(st.floats(0, 3))
    return pwl(list(zip(locs, weights)), constant)


class TestWeightedMedian:
    def test_single_breakpoint(self):
        t, v = weighted_median_min(pwl([(3.0, 1.0)], constant=0.7))
        assert t == 3.0
        assert v == 0.7

    def test_plain_median_of_three(self):
        t, _ = weighted_median_min(pwl([(1.0, 1.0), (2.0, 1.0), (9.0, 1.0)]))
        assert t == 2.0

    def test_heavy_weight_dominates(self):
        t, _ = weighted_median_min(pwl([(0.0, 10.0), (5.0, 1.0)]))
        assert t == 0.0

    def test_flat_segment_returns_midpoint(self):
        t, _ = weighted_median_min(pwl([(0.0, 1.0), (1.0, 1.0)]))
        assert t == 0.5

    def test_empty_and_weightless_inputs(self):
        with pytest.raises(DegenerateInputError):
            weighted_median_min(PiecewiseLinear1D(np.array([]), np.array([]), 0.0))
        with pytest.raises(DegenerateInputError):
            weighted_median_min(pwl([(1.0, 0.0)]))

    @settings(max_examples=200, deadline=None)
    @given(g=random_pwl())
    def test_is_global_minimum(self, g):
        t, v = weighted_median_min(g)
        grid = np.concatenate([g.locations, np.linspace(-60, 60, 121)])
        assert v <= min(g(t) for t in grid) + 1e-9 * (1 + abs(v))


class TestTernary:
    def test_v_shape(self):
        res = ternary_min(lambda t: abs(t - 3.0), Bracket(0.0, 10.0))
        assert res.converged
        assert abs(res.t - 3.0) <= 1e-7
        assert res.bracket.width <= 1e-7

    def test_flat_bottom_lands_inside(self):
        g = pwl([(0.0, 1.0), (1.0, 1.0)])
        res = ternary_min(g, Bracket(-4.0, 10.0))
        tol = 1e-8 * 14.0
        assert -tol <= res.t <= 1.0 + tol

    def test_matches_median_oracle_on_random_restrictions(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = rng.integers(1, 7)
            g = pwl(
                list(zip(rng.uniform(-5, 5, n), rng.uniform(0.05, 3.0, n))),
                constant=float(rng.uniform(0, 2)),
            )
            _, v_star = weighted_median_min(g)
            res = ternary_min(g, Bracket(-6.0, 6.0))
            assert res.value == pytest.approx(v_star, abs=1e-6, rel=1e-6)

    def test_non_convergence_flag(self, monkeypatch):
        monkeypatch.setattr(linesearch, "MAX_ROUNDS", 3)
        monkeypatch.setattr(linesearch, "TOLERANCE", 1e-12)
        res = ternary_min(lambda t: abs(t), Bracket(0.0, 1e6))
        assert not res.converged
        assert np.isfinite(res.value)

    def test_never_done_chop_reaches_the_locus_tolerance_in_23_rounds(self):
        # two new probes a round, each later round shrinking the bracket by
        # GOLDEN**2 = 0.382: thirds took 52 rounds to reach 1e-9
        probes = []

        def g(t):
            probes.append(t)
            return abs(t - 2.7)

        res = ternary_min(g, Bracket(-60.0, 60.0), lambda: False)
        assert res.converged and res.rounds <= 23
        assert res.bracket.width <= 120.0 * GOLDEN ** (2 * res.rounds - 1) * (1 + 1e-8)
        assert res.evals == len(probes) == 2 * res.rounds + 2
        assert abs(res.t - 2.7) <= linesearch.TOLERANCE * 120.0

    def test_shrink_rate(self):
        res = ternary_min(lambda t: abs(t - 1.0), Bracket(-7.0, 9.0))
        assert res.bracket.width <= 16.0 * (2.0 / 3.0) ** res.rounds * (1 + 1e-8)


class TestQuadrature:
    def test_v_shape_default_probes(self):
        res = quadrature_min(lambda t: abs(t - 3.0), Bracket(0.0, 10.0))
        assert res.converged
        assert abs(res.t - 3.0) <= 1e-7

    def test_shrink_rate_bound(self):
        res = quadrature_min(lambda t: abs(t + 2.0), Bracket(-11.0, 5.0))
        # stated bound is 2/(probes-1) per round; the grid actually does better
        assert res.bracket.width <= 16.0 * (2.0 / (PROBES - 1)) ** res.rounds * (1 + 1e-8)

    def test_agrees_with_ternary_on_random_pwl(self, monkeypatch):
        monkeypatch.setattr(linesearch, "TOLERANCE", 1e-8)
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = rng.integers(1, 7)
            g = pwl(
                list(zip(rng.uniform(-5, 5, n), rng.uniform(0.05, 3.0, n))),
                constant=float(rng.uniform(0, 2)),
            )
            bracket = Bracket(-8.0, 8.0)
            vt = ternary_min(g, bracket).value
            vq = quadrature_min(g, bracket).value
            bound = 2 * linesearch.TOLERANCE * bracket.width * g.total_weight + 1e-12
            assert abs(vt - vq) <= bound


@settings(max_examples=120, deadline=None)
@given(g=random_pwl())
def test_searches_bracket_median_agreement(g):
    t_star, v_star = weighted_median_min(g)
    bracket = Bracket(min(-60.0, t_star - 1), max(60.0, t_star + 1))
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body: no fixture
        mp.setattr(linesearch, "TOLERANCE", 1e-8)
        bound = 2 * linesearch.TOLERANCE * bracket.width * g.total_weight
        bound += 1e-10 * (1 + abs(v_star))
        for search in (ternary_min, quadrature_min):
            res = search(g, bracket)
            assert res.value >= v_star - 1e-12
            assert res.value - v_star <= bound


@settings(max_examples=80, deadline=None)
@given(g=random_pwl(), lo=st.floats(-70, 60))
def test_searches_never_beat_input_midpoint(g, lo):
    bracket = Bracket(lo, lo + 12.0)
    mid_value = g(bracket.mid)
    assert ternary_min(g, bracket).value <= mid_value
    assert quadrature_min(g, bracket).value <= mid_value


class TestExpandBracket:
    def test_extends_to_contain_minimum(self):
        g = lambda t: abs(t - 100.0)
        out = expand_bracket(g, Bracket(0.0, 1.0))
        assert out.lo <= 100.0 <= out.hi

    def test_already_containing_is_unchanged(self):
        out = expand_bracket(lambda t: abs(t), Bracket(-1.0, 1.0))
        assert (out.lo, out.hi) == (-1.0, 1.0)

    def test_contains_median_of_random_shifted_pwl(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            shift = float(rng.uniform(-200, 200))
            n = int(rng.integers(1, 6))
            g = pwl(list(zip(rng.uniform(-3, 3, n) + shift, rng.uniform(0.1, 2.0, n))))
            t_star, _ = weighted_median_min(g)
            out = expand_bracket(g, Bracket(-1.0, 1.0))
            assert out.lo <= t_star <= out.hi

    def test_unbounded_direction_raises(self, monkeypatch):
        monkeypatch.setattr(linesearch, "MAX_DOUBLINGS", 10)
        with pytest.raises(UnboundedDirectionError):
            expand_bracket(lambda t: t, Bracket(0.0, 1.0))


@pytest.mark.parametrize("search, per_round", [(ternary_min, 2), (quadrature_min, 8)])
@pytest.mark.parametrize("stop_at", [0, 1, 2, 6])
def test_search_stops_at_the_first_done_round(search, per_round, stop_at):
    probes = []

    def g(t):
        probes.append(t)
        return abs(t - 0.3)

    checks = []

    def done():
        checks.append(len(probes))
        return len(checks) == stop_at + 1

    res = search(g, Bracket(-4.0, 10.0), done)
    # asked once the midpoint is valued and once after each round, with
    # that round's probes made
    assert probes[0] == 3.0
    assert checks == [1 + per_round * k for k in range(stop_at + 1)]
    assert res.rounds == stop_at
    assert res.evals == len(probes) == 1 + per_round * stop_at
    assert res.converged
    assert res.value == min(abs(t - 0.3) for t in probes)


@pytest.mark.parametrize("search", [ternary_min, quadrature_min])
def test_search_never_done_runs_to_the_tolerance(search):
    g = pwl([(1.5, 1.0), (-2.0, 0.5)], constant=0.25)
    plain = search(g, Bracket(-6.0, 6.0))
    asked = search(g, Bracket(-6.0, 6.0), lambda: False)
    assert asked == plain

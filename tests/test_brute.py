import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladlasso import brute
from ladlasso.brute import (
    candidate_count,
    check_enumeration_size,
    solve_brute,
    solve_linear_system,
)
from ladlasso.errors import ProblemTooLargeError
from ladlasso.lp import solve_lp
from ladlasso.model import GAP_TOL, Coefficients, Dataset, ProblemSpec, evaluate_objective
from util import make_problem, rel_gap, tiny_problem


def enumerate_vertices(spec):
    """Every nonsingular d-plane intersection point, solved as one stack."""
    check_enumeration_size(spec.m, spec.d)
    planes = np.vstack([spec.data.x, np.eye(spec.d)])
    rhs = np.concatenate([spec.data.y, np.zeros(spec.d)])
    subsets = np.array(list(itertools.combinations(range(planes.shape[0]), spec.d)))
    sol, singular = solve_linear_system(planes[subsets], rhs[subsets])
    return [Coefficients(v) for v in sol[~singular]]


def solve_one(a, b):
    """One system as a batch of one: its solution, or None if singular."""
    sol, singular = solve_linear_system([a], [b])
    return None if singular[0] else sol[0]


class TestLinearSolve:
    def test_identity(self):
        assert solve_one(np.eye(2), [3.0, 4.0]).tolist() == [3.0, 4.0]

    def test_rank_deficient_returns_none(self):
        assert solve_one([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]) is None

    def test_random_system_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(-2, 2, (3, 3))
            b = rng.uniform(-2, 2, 3)
            sol = solve_one(a, b)
            assert sol is not None
            assert np.abs(a @ sol - b).max() < 1e-9

    def test_zero_row_is_singular(self):
        assert solve_one([[0.0, 0.0], [1.0, 2.0]], [0.0, 1.0]) is None

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            solve_linear_system(np.ones((1, 2, 3)), np.ones((1, 2)))

    def test_pivot_below_rtol_is_singular(self, monkeypatch):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        assert solve_one(a, [1.0, 2.0]) is None
        with monkeypatch.context() as mp:
            mp.setattr(brute, "PIVOT_RTOL", 1e-14)
            assert solve_one(a, [1.0, 2.0]) is not None
        sol, singular = solve_linear_system(np.stack([a, np.eye(2)]), [[1.0, 2.0], [5.0, 6.0]])
        assert singular.tolist() == [True, False]
        assert sol[1].tolist() == [5.0, 6.0]

    @pytest.mark.parametrize(
        "scale",
        (1e150, 1e-150, 1e70, 1e300, 1e-300,  # whole systems
         (1.0, 1e-7, 1e-7), (1.0, 1e-4, 1e-4, 1e-4, 1e-4), (1e6, 1.0, 1e-6, 1e3)),  # columns
    )
    def test_screen_is_scale_free(self, scale):
        # a raw determinant would overflow or underflow, and a screen on rows
        # alone multiplies several small columns' factors into a tiny one
        scale = np.array(scale)
        n = scale.size if scale.ndim else 5
        rng = np.random.default_rng(11)
        a = rng.uniform(-2.0, 2.0, (20, n, n)) * scale
        x = rng.uniform(-2.0, 2.0, (20, n))
        b = np.einsum("kij,kj->ki", a, x / scale)
        sol, singular = solve_linear_system(a, b)
        assert not singular.any()
        assert np.abs(sol * scale - x).max() < 1e-9
        a[3, 2] = 0.0
        a[7, :, 1] = 0.0
        assert solve_linear_system(a, b)[1].tolist() == [k in (3, 7) for k in range(20)]

    def test_rejects_mismatched_stack(self):
        with pytest.raises(ValueError):
            solve_linear_system(np.ones((4, 2, 2)), np.ones((3, 2)))


@st.composite
def system_stacks(draw):
    """A stack of n x n systems, each random or made singular on purpose, with
    whether it must come out singular (None where that is left to rounding)."""
    n = draw(st.integers(1, 5))
    kinds = ("random", "zero_row", "rank_deficient", "tiny_pivot")
    count = draw(st.integers(1, 8))
    entries = st.floats(-10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)
    a = np.array(draw(st.lists(entries, min_size=count * n * n, max_size=count * n * n)))
    b = np.array(draw(st.lists(entries, min_size=count * n, max_size=count * n)))
    a, b = a.reshape(count, n, n), b.reshape(count, n)
    must = []
    for s in range(count):
        kind = draw(st.sampled_from(kinds if n > 1 else kinds[:2]))
        i, j = draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
        if kind == "zero_row":
            a[s, i] = 0.0
        elif kind == "rank_deficient":
            a[s, j] = 2.0 * a[s, i]  # exact in binary, so elimination cancels exactly
        elif kind == "tiny_pivot":
            a[s, j] = a[s, i]
            a[s, j, draw(st.integers(0, n - 1))] += 1e-14
        must.append(True if kind in ("zero_row", "rank_deficient") else None)
    return a, b, must, draw(st.sampled_from((1e-12, 1e-6)))


@settings(max_examples=200, deadline=None)
@given(stack=system_stacks())
def test_stacked_solve_is_the_single_solve_bit_for_bit(stack):
    a, b, must, pivot_rtol = stack
    with pytest.MonkeyPatch.context() as mp:  # hypothesis reruns the body: no fixture
        mp.setattr(brute, "PIVOT_RTOL", pivot_rtol)
        sol, singular = solve_linear_system(a, b)
        assert sol.shape == b.shape and singular.shape == (len(must),)
        for s, must_be_singular in enumerate(must):
            one = solve_one(a[s], b[s])
            assert singular[s] == (one is None)
            if one is not None:
                assert sol[s].tobytes() == one.tobytes()
            if must_be_singular:
                assert singular[s]


class TestEnumeration:
    def test_single_point_vertices(self):
        spec = tiny_problem([[1.0]], [2.0], 0.5)
        vertices = sorted(v.beta[0] for v in enumerate_vertices(spec))
        assert vertices == [0.0, 2.0]

    def test_count_for_two_points(self):
        spec = tiny_problem([[1.0], [2.0]], [1.0, 5.0], 0.1)
        assert candidate_count(spec.m, spec.d) == 3
        assert sum(1 for _ in enumerate_vertices(spec)) == 3

    def test_duplicate_row_skips_singular_subsets(self):
        x = np.array([[1.0, 0.5], [1.0, 0.5], [0.3, -1.0], [2.0, 0.7]])
        y = np.array([1.0, 1.0, 2.0, 0.5])
        spec = tiny_problem(x, y, 0.1)
        n_vertices = sum(1 for _ in enumerate_vertices(spec))
        assert n_vertices < math.comb(6, 2)

        # oracle: per-subset rank check decides which subsets are solvable
        planes = np.vstack([x, np.eye(2)])
        expected = 0
        for subset in itertools.combinations(range(6), 2):
            if np.linalg.matrix_rank(planes[list(subset)], tol=1e-9) == 2:
                expected += 1
        assert n_vertices == expected

    def test_caps(self, monkeypatch):
        spec = make_problem(seed=1, d=2, m=6, lam=0.1)
        with monkeypatch.context() as mp:
            mp.setattr(brute, "MAX_VARIABLES", 1)
            with pytest.raises(ProblemTooLargeError):
                list(enumerate_vertices(spec))
        with monkeypatch.context() as mp:
            mp.setattr(brute, "MAX_CANDIDATES", 5)
            with pytest.raises(ProblemTooLargeError):
                list(enumerate_vertices(spec))


class TestSolveBrute:
    def test_fit_beats_penalty(self):
        res = solve_brute(tiny_problem([[1.0]], [2.0], 0.5))
        assert res.beta.beta[0] == 2.0
        assert res.objective == 1.0

    def test_penalty_beats_fit(self):
        res = solve_brute(tiny_problem([[1.0]], [2.0], 1.5))
        assert res.beta.beta[0] == 0.0
        assert res.objective == 2.0

    def test_beats_random_sampling(self):
        spec = make_problem(seed=12, d=2, m=6, lam=0.1)
        res = solve_brute(spec)
        rng = np.random.default_rng(12)
        samples = rng.uniform(-12, 12, (10_000, 2))
        values = np.abs(spec.data.y[None, :] - samples @ spec.data.x.T).sum(axis=1)
        values += spec.lambda_eff * np.abs(samples).sum(axis=1)
        assert res.objective <= values.min() + 1e-12

    def test_vertex_count_reported(self):
        spec = make_problem(seed=13, d=2, m=5, lam=0.1)
        res = solve_brute(spec)
        assert res.iterations == candidate_count(5, 2)  # generic data: nothing singular
        assert res.converged

    def test_objective_revalidates(self):
        spec = make_problem(seed=14, d=3, m=6, lam=0.5)
        res = solve_brute(spec)
        assert res.objective == pytest.approx(
            evaluate_objective(spec, res.beta), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_units_at_lambda_zero_match_the_lp(self, seed):
        # at lambda = 0 the optimum is a vertex of residual planes only, whose
        # systems carry the two small columns
        spec = make_problem(seed=seed, d=3, m=10, lam=0.0)
        x = spec.data.x * np.array([1.0, 1e-7, 1e-7])
        spec = ProblemSpec(Dataset(x, spec.data.y), 0.0)
        assert rel_gap(solve_brute(spec).objective, solve_lp(spec).objective) <= GAP_TOL

    def test_chunked_stream_agrees_with_one_chunk(self, monkeypatch):
        # noiseless data: many subsets meet at the optimum, so the tie-break
        # between their rounding-level differences is exercised across chunks
        for spec in (make_problem(seed=15, d=3, m=9, lam=0.1),
                     make_problem(seed=16, d=2, m=12, lam=0.1, noise=0.0, outliers=0.0)):
            whole = solve_brute(spec)
            monkeypatch.setattr(brute, "CHUNK_BYTES", 7 * 8 * spec.m)  # 7 subsets a chunk
            chunked = solve_brute(spec)
            monkeypatch.undo()
            assert chunked.beta.beta.tobytes() == whole.beta.beta.tobytes()
            assert chunked.objective == whole.objective
            assert chunked.iterations == whole.iterations == candidate_count(spec.m, spec.d)

"""Exhaustive vertex evaluation: the ground-truth solver for small problems.

The LP recasting guarantees the optimum sits at a vertex, and the
back-to-back variable splits make every vertex of the full 2d+2m space
project onto an intersection of d hyperplanes in the original coefficient
space: the m residual sign-change planes x_i . beta = y_i plus the d
coefficient sign-change planes beta_j = 0.  So it suffices to solve every
d-of-(m+d) plane subset and take the cheapest nonsingular solution.  The
candidate count choose(m+d, d) explodes combinatorially, hence the hard caps.
Subsets stream in fixed-size chunks, each solved as one stack of systems by
LAPACK (``solve_linear_system``, also the snap's solver in ``locus``) and
screened with one objective product; only a chunk is ever materialised.
"""

from __future__ import annotations

import functools
import itertools
import math
import time

import numpy as np

from .errors import ProblemTooLargeError
from .model import Coefficients, ProblemSpec, SolveResult, objective_value, objective_values

MAX_VARIABLES = 6
MAX_CANDIDATES = 2_000_000
CHUNK_BYTES = 2 << 20  # the size of a chunk of subsets' (B x m) objective block
# a system is singular below this scaled determinant (``solve_linear_system``)
PIVOT_RTOL = 1e-12


def solve_linear_system(a, b):
    """Solve a stack of systems (B x n x n, B x n) with LAPACK, each exactly
    as it would be solved alone: (solutions, singular mask).

    A system is singular unless its determinant exceeds ``PIVOT_RTOL`` in
    magnitude once each row and then each column is divided by its largest
    magnitude (LAPACK's xGEEQU order), at most n^(n/2) by Hadamard's
    inequality.  Scaling rows or the whole system does not move the screen,
    and columns in different units (1 and 1e-7) do not read as singular; a
    zero row or column gives nan, hence singular.  A singular system's
    solution is junk.  Skipping such subsets is safe for vertex enumeration:
    any degenerate vertex is reachable through another nonsingular subset.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    count, n = a.shape[0], a.shape[-1]
    if a.shape != (count, n, n) or b.shape != (count, n):
        raise ValueError(f"need square systems, got a{a.shape}, b{b.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero row or column: nan
        # one np.maximum per slice: numpy's max over an axis this short costs ~10x
        scaled = a / functools.reduce(np.maximum, np.abs(a).transpose(2, 0, 1))[..., None]
        scaled /= functools.reduce(np.maximum, np.abs(scaled).transpose(1, 0, 2))[:, None]
        singular = ~(np.abs(np.linalg.det(scaled)) > PIVOT_RTOL)
    a[singular] = np.eye(n)
    # b as a stack of columns, which numpy 1.x and 2.x both read alike
    return np.linalg.solve(a, b[..., None])[..., 0], singular


def candidate_count(m: int, d: int) -> int:
    return math.comb(m + d, d)


def check_enumeration_size(m: int, d: int) -> int:
    """The candidate count of an m x d problem; raises if it exceeds the caps."""
    count = candidate_count(m, d)
    if d > MAX_VARIABLES:
        raise ProblemTooLargeError(
            f"d={d} exceeds the enumeration limit of {MAX_VARIABLES} variables"
        )
    if count > MAX_CANDIDATES:
        raise ProblemTooLargeError(
            f"choose({m + d}, {d}) = {count} candidate subsets exceeds the cap of {MAX_CANDIDATES}"
        )
    return count


def solve_brute(spec: ProblemSpec) -> SolveResult:
    """Evaluate the objective at every vertex and keep the minimum.

    Ties break toward the smaller coefficient L1 norm, then lexicographically,
    so the result is independent of how the subset stream might be
    partitioned.  ``iterations`` and ``objective_evals`` both count the
    vertices actually evaluated (singular subsets are skipped).
    """
    check_enumeration_size(spec.m, spec.d)
    t0 = time.perf_counter()
    x, y = spec.data.x, spec.data.y
    lam = spec.lambda_eff
    d = spec.d
    planes = np.vstack([x, np.eye(d)])
    rhs = np.concatenate([y, np.zeros(d)])
    subsets = itertools.chain.from_iterable(itertools.combinations(range(spec.m + d), d))
    chunk = d * max(1, CHUNK_BYTES // (8 * spec.m))
    best = (np.inf, np.inf, ())  # (objective, L1 norm, coefficients) of the best vertex
    evaluated = 0
    while (idx := np.fromiter(itertools.islice(subsets, chunk), np.intp).reshape(-1, d)).size:
        sol, singular = solve_linear_system(planes[idx], rhs[idx])
        vertices = sol[~singular]
        evaluated += len(vertices)
        # rank by ``objective_value`` only the vertices that the chunk's
        # screen, far looser than both roundings, cannot tell from its lowest
        screen = objective_values(x, y, lam, vertices)
        slack = 1e-12 * (np.abs(y).sum() + np.abs(vertices) @ (np.abs(x).sum(axis=0) + lam))
        for v in vertices[screen - slack <= min(best[0], (screen + slack).min(initial=np.inf))]:
            best = min(best, (objective_value(x, y, lam, v), float(np.abs(v).sum()), tuple(v)))
    if not best[2]:
        # unreachable: the d coefficient planes (beta = 0) are never singular
        raise ProblemTooLargeError("no nonsingular vertex found")
    return SolveResult(
        beta=Coefficients(np.array(best[2])),
        objective=best[0],
        solver_id="brute",
        iterations=evaluated,
        objective_evals=evaluated,
        wall_time=time.perf_counter() - t0,
        converged=True,
    )

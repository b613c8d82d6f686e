"""Exhaustive vertex evaluation: the ground-truth solver for small problems.

The LP recasting guarantees the optimum sits at a vertex, and the
back-to-back variable splits make every vertex of the full 2d+2m space
project onto an intersection of d hyperplanes in the original coefficient
space: the m residual sign-change planes x_i . beta = y_i plus the d
coefficient sign-change planes beta_j = 0.  So it suffices to solve every
d-of-(m+d) plane subset and take the cheapest nonsingular solution.  The
candidate count choose(m+d, d) explodes combinatorially, hence the hard caps.
Subsets stream in fixed-size chunks, each solved as one stack of systems and
screened with one objective product; only a chunk is ever materialised.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .errors import ProblemTooLargeError
from .model import Coefficients, ProblemSpec, SolveResult, objective_value, objective_values

DEFAULT_MAX_VARIABLES = 6
DEFAULT_MAX_CANDIDATES = 2_000_000
CHUNK_BYTES = 2 << 20  # the size of a chunk of subsets' (B x m) objective block


def solve_linear_system(a, b, pivot_rtol: float = 1e-12):
    """Gaussian elimination with scaled partial pivoting of a stack of systems
    (B x n x n, B x n), each taking the same steps as it would alone, bit for
    bit: (solutions, singular mask).

    A pivot below ``pivot_rtol`` times its row's infinity norm marks a system
    singular.  Skipping such subsets is safe for vertex enumeration: any
    degenerate vertex is reachable through another nonsingular subset.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    count, n = a.shape[0], a.shape[-1]
    if a.shape != (count, n, n) or b.shape != (count, n):
        raise ValueError(f"need square systems, got a{a.shape}, b{b.shape}")
    rows = np.arange(count)
    row_norm = np.abs(a).max(axis=2)
    singular = (row_norm == 0.0).any(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # singular junk
        for k in range(n):
            p = k + (np.abs(a[:, k:, k]) / row_norm[:, k:]).argmax(axis=1)
            singular |= ~(np.abs(a[rows, p, k]) > pivot_rtol * row_norm[rows, p])
            a[:, k], a[rows, p] = a[rows, p], a[:, k].copy()
            b[:, k], b[rows, p] = b[rows, p], b[:, k].copy()
            row_norm[:, k], row_norm[rows, p] = row_norm[rows, p], row_norm[:, k].copy()
            factors = a[:, k + 1 :, k] / a[:, k, k, None]
            a[:, k + 1 :, k:] -= factors[:, :, None] * a[:, None, k, k:]
            b[:, k + 1 :] -= factors * b[:, k, None]
        # each dot product summed column by column: a BLAS dot's order and
        # fused multiply-adds could make the last bit depend on the stack
        for k in range(n - 1, -1, -1):
            dot = np.zeros(count)
            for j in range(k + 1, n):
                dot += a[:, k, j] * b[:, j]
            b[:, k] = (b[:, k] - dot) / a[:, k, k]
    return b, singular


def candidate_count(m: int, d: int) -> int:
    return math.comb(m + d, d)


def check_enumeration_size(
    m: int,
    d: int,
    max_variables: int = DEFAULT_MAX_VARIABLES,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> int:
    """The candidate count of an m x d problem; raises if it exceeds the caps."""
    count = candidate_count(m, d)
    if d > max_variables:
        raise ProblemTooLargeError(
            f"d={d} exceeds the enumeration limit of {max_variables} variables"
        )
    if count > max_candidates:
        raise ProblemTooLargeError(
            f"choose({m + d}, {d}) = {count} candidate subsets exceeds the cap of {max_candidates}"
        )
    return count


def solve_brute(
    spec: ProblemSpec,
    max_variables: int = DEFAULT_MAX_VARIABLES,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> SolveResult:
    """Evaluate the objective at every vertex and keep the minimum.

    Ties break toward the smaller coefficient L1 norm, then lexicographically,
    so the result is independent of how the subset stream might be
    partitioned.  ``iterations`` and ``objective_evals`` both count the
    vertices actually evaluated (singular subsets are skipped).
    """
    check_enumeration_size(spec.m, spec.d, max_variables, max_candidates)
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
        # unreachable: the all-coordinate-planes subset is always nonsingular
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

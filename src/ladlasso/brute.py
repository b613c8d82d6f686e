"""Exhaustive vertex evaluation: the ground-truth solver for small problems.

The LP recasting guarantees the optimum sits at a vertex, and the
back-to-back variable splits make every vertex of the full 2d+2m space
project onto an intersection of d hyperplanes in the original coefficient
space: the m residual sign-change planes x_i . beta = y_i plus the d
coefficient sign-change planes beta_j = 0.  So it suffices to solve every
d-of-(m+d) plane subset and take the cheapest nonsingular solution.  The
candidate count choose(m+d, d) explodes combinatorially, hence the hard caps.
Subsets stream one at a time; nothing is materialised.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Iterator

import numpy as np

from .errors import ProblemTooLargeError
from .model import Coefficients, ProblemSpec, SolveResult, objective_value

DEFAULT_MAX_VARIABLES = 6
DEFAULT_MAX_CANDIDATES = 2_000_000


def solve_linear_system(a, b, pivot_rtol: float = 1e-12) -> np.ndarray | None:
    """Gaussian elimination with scaled partial pivoting; None when singular.

    A pivot below ``pivot_rtol`` times its row's infinity norm marks the
    system singular.  Skipping such subsets is safe for vertex enumeration:
    any degenerate vertex is reachable through another nonsingular subset.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"need a square system, got a{a.shape}, b{b.shape}")
    row_norm = np.abs(a).max(axis=1)
    if (row_norm == 0.0).any():
        return None
    for k in range(n):
        scores = np.abs(a[k:, k]) / row_norm[k:]
        p = k + int(np.argmax(scores))
        if abs(a[p, k]) <= pivot_rtol * row_norm[p]:
            return None
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
            row_norm[[k, p]] = row_norm[[p, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= factors[:, None] * a[k, k:]
        b[k + 1 :] -= factors * b[k]
    sol = np.empty(n)
    for k in range(n - 1, -1, -1):
        sol[k] = (b[k] - a[k, k + 1 :] @ sol[k + 1 :]) / a[k, k]
    return sol


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


def _vertices_raw(spec: ProblemSpec) -> Iterator[np.ndarray]:
    d = spec.d
    planes = np.vstack([spec.data.x, np.eye(d)])
    rhs = np.concatenate([spec.data.y, np.zeros(d)])
    for subset in itertools.combinations(range(planes.shape[0]), d):
        idx = list(subset)
        sol = solve_linear_system(planes[idx], rhs[idx])
        if sol is not None:
            yield sol


def enumerate_vertices(
    spec: ProblemSpec,
    max_variables: int = DEFAULT_MAX_VARIABLES,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> Iterator[Coefficients]:
    """Stream every nonsingular d-plane intersection point."""
    check_enumeration_size(spec.m, spec.d, max_variables, max_candidates)
    for sol in _vertices_raw(spec):
        yield Coefficients(sol)


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
    best_beta: np.ndarray | None = None
    best = (np.inf, np.inf, ())
    evaluated = 0
    for v in _vertices_raw(spec):
        evaluated += 1
        obj = objective_value(x, y, lam, v)
        if obj > best[0]:
            continue
        key = (obj, float(np.abs(v).sum()), tuple(v))
        if key < best:
            best = key
            best_beta = v
    if best_beta is None:
        # unreachable: the all-coordinate-planes subset is always nonsingular
        raise ProblemTooLargeError("no nonsingular vertex found")
    return SolveResult(
        beta=Coefficients(best_beta),
        objective=best[0],
        solver_id="brute",
        iterations=evaluated,
        objective_evals=evaluated,
        wall_time=time.perf_counter() - t0,
        converged=True,
    )

"""Global search over the locus of axis-wise minima, stopped by a duality gap.

Plain coordinate descent on this objective can halt at a point where every
axis-parallel direction increases yet a diagonal direction still descends.
Such halting points form a single curve, monotone in every coordinate, and
the objective restricted to it is convex.  So one axis can be bracket-searched
with every probe valued by a restricted coordinate descent (the probed
coordinate frozen), which lands on the corresponding point of the curve.

The minimum of the piecewise-linear objective sits at a vertex, where d of
its m + d planes meet (x_i . beta = y_i, beta_j = 0).  The best probe ends
near it, within bracket precision or where a descent stalls, so its nearest
planes are the likely tight ones: ``solve_locus`` snaps onto their lowest
vertex, then certifies it with a dual point u (any u with ||u||_inf <= 1 and
||X^T u||_inf <= lambda_eff has y . u <= f*).  It does so after every round
of the search, and stops at the first certified round: a GPU thread should
do no work past a proven optimum.  A round with no better probe may mean the
descents stall short of the curve; the lowest snapped vertex is then pivoted
downhill along its edges, which tightens the bound and warm-starts later
probes near the optimum.  ``sample_locus`` traces the curve on a grid, to
test the monotonicity and convexity claims empirically.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .brute import solve_linear_system
from .ccd import ccd_descend
from .errors import InvalidInputError
from .linesearch import Bracket, SearchConfig, expand_bracket, quadrature_min, ternary_min
from .model import GAP_TOL, Coefficients, Dataset, ProblemSpec, SolveResult, objective_value
from .model import objective_values

OUTER_SEARCHES = ("ternary", "quadrature")
# the bracket search along each axis (8 probes per quadrature round)
SEARCH = SearchConfig(tolerance=1e-9)

# the snap tries every vertex of the d + SNAP_SPARE planes nearest the point
SNAP_SPARE = 3
# a plane passes through a vertex when the vertex misses it by at most this
# much relative to the terms of its equation (far above rounding)
TIGHT_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class LocusPoint:
    """One point of the curve: frozen coordinate t, the minimising beta of the
    orthogonal subspace, and whether the inner descent converged."""

    t: float
    beta: Coefficients
    value: float
    inner_converged: bool


def axes_by_influence(data: Dataset) -> list[int]:
    """All axes, most influential column first (ties by index).  Deterministic."""
    influence = np.abs(data.x).sum(axis=0)
    return sorted(range(data.d), key=lambda j: (-influence[j], j))


def default_bracket(data: Dataset) -> Bracket:
    """A bracket so wide that a coefficient beyond it would already be
    implausible on penalty grounds; the search validates it by expansion."""
    column_scale = float(np.abs(data.x).mean(axis=0).max())
    radius = float(np.abs(data.y).max()) / column_scale if column_scale > 0 else np.inf
    if not np.isfinite(radius) or radius <= 0:
        radius = 1.0
    return Bracket(-radius, radius)


def locus_value(
    spec: ProblemSpec,
    axis: int,
    t: float,
    warm: Coefficients | None = None,
    line_steps: bool = False,
) -> LocusPoint:
    """Minimise the objective over all coordinates except ``axis`` (held at t).

    Starts from ``warm`` when given, else from zero, and descends with
    ``ccd_descend`` (taking ``line_steps`` if set).  Inner non-convergence is
    reported on the returned point rather than raised: the value is still a
    valid (if possibly loose) upper bound on the curve value.
    """
    if axis not in range(spec.d):
        raise InvalidInputError(f"axis {axis} out of range for d={spec.d}")
    start = warm.beta.copy() if warm is not None else np.zeros(spec.d)
    start[axis] = t
    res = ccd_descend(spec, Coefficients(start), axis, line_steps)
    return LocusPoint(t, res.beta, res.objective, res.converged)


def sample_locus(
    spec: ProblemSpec,
    axis: int,
    bracket: Bracket,
    n: int,
) -> list[LocusPoint]:
    """Trace the curve at n equally spaced frozen-coordinate values.

    Successive points warm-start from their predecessor; the returned value
    sequence should be unimodal and each coordinate path monotone, which the
    test suite checks on random problems instead of assuming.
    """
    if n < 3:
        raise InvalidInputError("need at least 3 sample points")
    points: list[LocusPoint] = []
    warm: Coefficients | None = None
    for t in np.linspace(bracket.lo, bracket.hi, n):
        pt = locus_value(spec, axis, float(t), warm)
        warm = pt.beta
        points.append(pt)
    return points


class _CurveEvaluator:
    """Evaluates the curve value at t with one restricted descent per probe.

    Each probe descends from ``cert.warm``, the pivoted vertex, once there
    is one, else from the nearest probe seen, the first from zero, taking
    ``line_steps`` (which cut zig-zags short but still stop only on a
    sweep without gain).  ``seen`` lists the probe points in the order seen;
    their distinct coordinates are also kept sorted, for bisection.
    """

    def __init__(self, spec: ProblemSpec, axis: int, cert: _Certificate | None = None):
        self.spec = spec
        self.axis = axis
        self.seen: list[LocusPoint] = []
        # distinct probe coordinates, ascending, each with its first-seen point
        self._ts: list[float] = []
        self._firsts: list[int] = []
        self.best: LocusPoint | None = None
        self.cert = cert if cert is not None else _Certificate(spec)
        self._offered: LocusPoint | None = None

    def remember(self, pt: LocusPoint) -> None:
        ts = self._ts
        i = bisect_left(ts, pt.t)
        if i == len(ts) or ts[i] != pt.t:
            ts.insert(i, pt.t)
            self._firsts.insert(i, len(self.seen))
        self.seen.append(pt)

    def _nearest(self, t: float) -> Coefficients | None:
        """The closest point seen; between equally close neighbours the first seen."""
        ts, firsts = self._ts, self._firsts
        i = bisect_left(ts, t)
        near = [k for k in (i - 1, i) if 0 <= k < len(ts)]
        if not near:
            return None
        k = min(near, key=lambda k: (abs(ts[k] - t), firsts[k]))
        return self.seen[firsts[k]].beta

    def __call__(self, t: float) -> float:
        warm = self.cert.warm if self.cert.warm is not None else self._nearest(t)
        pt = locus_value(self.spec, self.axis, t, warm, line_steps=True)
        self.remember(pt)
        if self.best is None or pt.value < self.best.value:
            self.best = pt
        return pt.value

    def certified(self) -> bool:
        """Whether ``cert`` is within ``GAP_TOL``, once offered the best probe
        if new, else pivoted: no better probe since the last check may mean
        the descents stall short of the curve."""
        if self.best is not self._offered:
            self._offered = self.best
            self.cert.offer(self.best.beta.beta)
        else:
            self.cert.pivot()
        return self.cert.gap <= GAP_TOL


def _snap(spec: ProblemSpec, beta: np.ndarray) -> tuple[float, np.ndarray, tuple[int, ...]]:
    """(objective, vertex, plane indices) of the lowest vertex among the
    d + ``SNAP_SPARE`` planes nearest ``beta``; ``(inf, beta, ())`` if all
    are singular.  Planes 0..m-1 are the rows, at distance |r_i| / ||x_i||_1,
    and m..m+d-1 the coefficients, at |beta_j|; ties go to the lower index."""
    x, y = spec.data.x, spec.data.y
    d = spec.d
    norms = np.abs(x).sum(axis=1)  # a zero row's plane is infinitely far
    far = np.divide(np.abs(y - x @ beta), norms, out=np.full(spec.m, np.inf), where=norms > 0)
    near = np.argsort(np.concatenate((far, np.abs(beta))), kind="stable")[: d + SNAP_SPARE]
    subsets = np.array(list(itertools.combinations(sorted(near.tolist()), d)))
    normals = np.vstack((x, np.eye(d)))
    offsets = np.append(y, np.zeros(d))
    vertices, singular = solve_linear_system(normals[subsets], offsets[subsets])
    vertices[singular] = 0.0  # junk, ranked last below
    k = int(np.where(singular, np.inf, objective_values(x, y, spec.lambda_eff, vertices)).argmin())
    if singular[k]:
        return np.inf, beta, ()
    return objective_value(x, y, spec.lambda_eff, vertices[k]), vertices[k], tuple(subsets[k])


def _pivot(spec: ProblemSpec, vertex: np.ndarray, planes: tuple[int, ...]):
    """(objective, vertex, planes) of the lowest point on the d edges out of
    ``vertex``, each leaving one of ``planes``: along an edge the objective is
    a weighted sum of |s - s_i| over the planes' crossings s_i, so it is
    lowest at their weighted median, where the crossed plane replaces the left
    one; ``(inf, vertex, planes)`` if the planes are singular."""
    x, y, lam, d = spec.data.x, spec.data.y, spec.lambda_eff, spec.d
    normals = np.vstack((x, np.eye(d)))
    stack = np.repeat(normals[list(planes)][None], d, axis=0)
    edges, singular = solve_linear_system(stack, np.eye(d))  # row k leaves plane k
    if singular.any():
        return np.inf, vertex, planes
    rate = normals @ edges.T  # (m + d) x d; a plane the edge runs along never crosses
    gap = np.append(y, np.zeros(d)) - normals @ vertex
    cross = np.divide(gap[:, None], rate, out=np.zeros_like(rate), where=rate != 0)
    weight = np.abs(rate) * np.append(np.ones(spec.m), np.full(d, lam))[:, None]
    order = np.argsort(cross, axis=0, kind="stable")
    cum = np.cumsum(np.take_along_axis(weight, order, axis=0), axis=0)
    hit = order[(cum >= 0.5 * cum[-1]).argmax(axis=0), np.arange(d)]
    points = vertex + cross[hit, np.arange(d), None] * edges
    k = int(objective_values(x, y, lam, points).argmin())
    crossed = planes[:k] + (int(hit[k]),) + planes[k + 1 :]
    return objective_value(x, y, lam, points[k]), points[k], crossed


def _dual_point(spec: ProblemSpec, vertex: np.ndarray, planes: tuple[int, ...]) -> np.ndarray:
    """A dual-feasible u built at ``vertex`` from the planes through it.

    T: the rows among ``planes`` or within ``TIGHT_RTOL`` of the vertex; F:
    the coefficients neither among ``planes`` nor that close to 0.  Off T,
    u_i = sign(r_i); u_T solves X_{T,F}^T u_T = lambda_eff sign(beta_F) -
    X_{~T,F}^T u_{~T}, least-norm where |T| > |F| (noiseless data), pinning
    at +-1 the rows it pushes past the box while enough rows remain.
    Clipping u_T and scaling u by 1 / max(1, ||X^T u||_inf / lambda_eff)
    make u feasible; at an optimal vertex neither should move it.
    """
    x, y = spec.data.x, spec.data.y
    lam = spec.lambda_eff
    m = spec.m
    r = y - x @ vertex
    tight = np.abs(r) <= TIGHT_RTOL * (np.abs(y) + np.abs(x) @ np.abs(vertex))
    tight[[i for i in planes if i < m]] = True
    small = TIGHT_RTOL * float(np.abs(vertex).max())
    free = [j for j in range(spec.d) if m + j not in planes and abs(vertex[j]) > small]
    u = np.where(tight, 0.0, np.sign(r))
    rows = np.flatnonzero(tight)
    while free and rows.size >= len(free):
        x_rf = x[np.ix_(rows, free)]
        rhs = lam * np.sign(vertex[free]) - x[:, free].T @ u  # u is 0 on rows
        square = rows.size == len(free)
        u_rows = solve_linear_system(x_rf.T if square else x_rf.T @ x_rf, rhs)
        if u_rows is None:
            break
        u_rows = u_rows if square else x_rf @ u_rows
        over = np.abs(u_rows) > 1.0
        if not over.any() or rows.size - over.sum() < len(free):
            u[rows] = np.where(over, np.sign(u_rows), u_rows)  # clip to [-1, 1]
            break
        u[rows[over]] = np.sign(u_rows[over])  # pin, then spread over the rest
        rows = rows[~over]
    return u / max(1.0, float(np.abs(x.T @ u).max()) / lam)


class _Certificate:
    """The lowest snapped point and, kept apart (a later offer may raise one
    and not the other), the highest dual bound y . u offered so far, with
    their relative gap (f - y . u) / f; 0 where f = 0 = f*.

    ``pivot`` moves the lowest snapped vertex downhill along edges
    (``_pivot``) until none is lower; the dual point of that vertex, ``warm``,
    joins the bound.  The point stays the search's own until it certifies:
    pivots tighten the bound on it and warm-start later probes, and only a
    certified point gives way to a lower ``warm``."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.point: np.ndarray | None = None
        self.value, self.bound, self.gap = np.inf, -np.inf, np.inf
        self.warm: Coefficients | None = None
        self._warm_value = np.inf
        self._lowest: tuple[float, np.ndarray | None, tuple[int, ...]] = (np.inf, None, ())

    def offer(self, beta: np.ndarray) -> None:
        """Snap ``beta`` and take the vertex (``beta`` if lower) and its bound."""
        x, y = self.spec.data.x, self.spec.data.y
        value = objective_value(x, y, self.spec.lambda_eff, beta)
        f_vertex, vertex, planes = _snap(self.spec, beta)
        if f_vertex <= value:
            beta, value = vertex, f_vertex
        if value < self.value:
            self.point, self.value = beta, value
        if f_vertex < self._lowest[0]:
            self._lowest = (f_vertex, vertex, planes)
        self._raise_bound(vertex, planes)

    def pivot(self) -> None:
        """Unless certified, pivot the lowest snapped vertex, if lower than
        ``warm``, as above."""
        f_vertex, vertex, planes = self._lowest
        if not planes or f_vertex >= self._warm_value or self.gap <= GAP_TOL:
            return
        snapped = f_vertex
        while (step := _pivot(self.spec, vertex, planes))[0] < f_vertex:
            f_vertex, vertex, planes = step
        self.warm, self._warm_value = Coefficients(vertex), f_vertex
        if f_vertex < snapped:
            self._raise_bound(vertex, planes)

    def _raise_bound(self, vertex: np.ndarray, planes: tuple[int, ...]) -> None:
        u = _dual_point(self.spec, vertex, planes)
        self.bound = max(self.bound, float(self.spec.data.y @ u))
        self._set_gap()
        if self.gap <= GAP_TOL and self._warm_value < self.value:
            # the point certified on its own; the lower pivoted vertex may replace it
            self.point, self.value = self.warm.beta, self._warm_value
            self._set_gap()

    def _set_gap(self) -> None:
        self.gap = (self.value - self.bound) / self.value if self.value > 0 else 0.0


def certify(spec: ProblemSpec, beta) -> tuple[np.ndarray, float, float]:
    """(point, objective, gap): the snapped vertex if no higher than ``beta``,
    else ``beta``, and its relative duality gap (f - y . u) / f for the dual
    point of the vertex, never below (f - f*) / f; 0 where f = 0 = f*."""
    cert = _Certificate(spec)
    cert.offer(beta.beta if isinstance(beta, Coefficients) else np.asarray(beta, dtype=float))
    return cert.point, cert.value, cert.gap


def solve_locus(spec: ProblemSpec, outer_search: str = "ternary") -> SolveResult:
    """Global solve: search the curve along one axis at a time until certified.

    Axes go in influence order.  Each bracket is expanded until it provably
    holds the curve's minimum and then searched with ``SEARCH``, by
    ``outer_search`` (one of ``OUTER_SEARCHES``).  After every round, and
    once the search ends, the axis's best probe, if new, is snapped and
    certified: the lowest snapped vertex and the highest dual bound from any
    axis so far make the gap, and a gap of at most ``GAP_TOL`` ends the solve
    at once.  A round with no better probe pivots instead (``_Certificate``).
    ``converged`` is exactly that test.  ``iterations`` counts outer
    rounds, ``objective_evals`` curve evaluations.
    """
    if outer_search not in OUTER_SEARCHES:
        raise InvalidInputError(f"unknown outer search {outer_search!r}")
    t0 = time.perf_counter()
    search = ternary_min if outer_search == "ternary" else quadrature_min
    start = default_bracket(spec.data)
    cert = _Certificate(spec)
    rounds = evals = 0
    for axis in axes_by_influence(spec.data):
        curve = _CurveEvaluator(spec, axis, cert)
        outer = search(curve, expand_bracket(curve, start), SEARCH, curve.certified)
        rounds += outer.rounds
        evals += len(curve.seen)
        if curve.certified():
            break
    return SolveResult(
        beta=Coefficients(cert.point),
        objective=cert.value,
        solver_id=f"locus_{outer_search}",
        iterations=rounds,
        objective_evals=evals,
        wall_time=time.perf_counter() - t0,
        converged=bool(cert.gap <= GAP_TOL),
    )

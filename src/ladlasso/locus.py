"""Global search over the locus of axis-wise minima, certified by LP duality.

Plain coordinate descent on this objective can halt at a point where every
axis-parallel direction increases yet a diagonal direction still descends.
Such halting points form a single curve.  The exact curve (the objective
minimised with one coordinate held) is convex, as any partial minimum of a
convex function is; the tests check that for d = 3 to 8, and monotone
coordinate paths only at d = 2 (acceptance criterion 4).  So one axis can be
bracket-searched with every probe valued by a restricted coordinate descent
(the probed coordinate frozen), which lands on the corresponding point of
the curve.

The search starts on a bracket that provably holds the axis's coordinate
of every minimiser (``proven_bracket``).  With p the axis's column less its
projection on the other columns, p . (y - X beta) = p . y - beta_a ||p||^2
for every beta, and Hoelder bounds the left side by ||p||_inf f(beta).  So
with U >= f*, here the certificate's lowest value (the objective at a point
offered to it), and the column's least-squares coefficient
c = p . y / ||p||^2, |beta*_a - c| <= U ||p||_inf / ||p||^2.  Also
lambda_eff |beta*_a| <= lambda_eff ||beta*||_1 <= f* <= U, which alone
bounds a column in the span of the others (p = 0, so c is taken as 0).  A
computed p keeps the identity only up to a defect e in its products with
the columns, which costs e ||beta*||_1 <= e U / lambda_eff more.

The minimum of the piecewise-linear objective sits at a vertex, where d of
its m + d planes meet (x_i . beta = y_i, beta_j = 0).  The probes end near
it, within bracket precision or where a descent stalls, so their nearest
planes are the likely tight ones: ``solve_locus`` snaps each point it
offers onto the lowest vertex of its nearest planes, or onto the origin
where every subset of them is singular, so each snap lands on a vertex.
At the first offer the dual point of that vertex's own basis bounds the
optimum from below (Barrodale & Roberts 1973; Koenker & d'Orey 1987); only
where that falls short does the simplex (``simplex_minimize``) run, started
at that basis, and its final basis bound instead.  The solve stops at the
first offer whose own lowest snapped point is within ``GAP_TOL`` of the
bound: a GPU thread should do no work past a proven optimum.

The search is entered where plain descent halts.  Unfrozen coordinate
descent from zero halts at an axis-wise minimum, a point of the curve at
its own coordinate on the axis, so it is offered first, before any bracket:
the curve is searched only where that point does not certify.  The chop
runs on the proven bracket as it is, so every probe lies inside it.  The
next offer is the bracket's midpoint c, the chop's first probe, then every
round of the search.  So every probe comes after the first offer, and
descends from the lowest point at its coordinate on the edges through the
certificate's vertex, where the curve runs near the optimum: a descent from
the vertex with one coordinate moved can stall well above the curve.
``sample_locus`` traces the curve on a grid, to test the monotonicity and
convexity claims empirically.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .brute import solve_linear_system
from .ccd import ccd_descend
from .errors import InvalidInputError
from .linesearch import Bracket, quadrature_min, ternary_min
# unused here: perfbench's WRAPPED binds locus.expand_bracket, and tests/test_perfbench.py checks it
from .linesearch import expand_bracket  # noqa: F401
from .lp import formulate, simplex_minimize
from .model import GAP_TOL, Coefficients, Dataset, ProblemSpec, SolveResult, objective_value
from .model import evaluate_objective, objective_values

OUTER_SEARCHES = ("ternary", "quadrature")

# the snap tries every vertex of the d + SNAP_SPARE planes nearest the point
SNAP_SPARE = 3


@dataclass(frozen=True, eq=False)
class LocusPoint:
    """One point of the curve: frozen coordinate t, the minimising beta of the
    orthogonal subspace, and whether the inner descent converged."""

    t: float
    beta: Coefficients
    value: float
    inner_converged: bool


def search_axis(data: Dataset) -> int:
    """The most influential axis, by column l1 norm; ties go to the lowest index."""
    influence = np.abs(data.x).sum(axis=0)
    return int(influence.argmax())


def proven_bracket(spec: ProblemSpec, axis: int, u: float) -> Bracket:
    """A bracket that holds coordinate ``axis`` of every minimiser, given any
    U = ``u`` >= f* (the proof is in the module docstring), centred on c.

    Its half-width is |c| + U / lambda_eff, since lambda_eff |beta*_a| <= U,
    or (U ||p||_inf + e U / lambda_eff) / ||p||^2 where that is less, e =
    max(|p . x_a - ||p||^2|, ||rest^T p||_inf): it holds where p is rounding
    noise just above the in-span threshold.  Cut to the penalty interval
    instead, it would end at the optimum on exact-fit data (U = lambda_eff
    |c| at d = 1), which the chop, probing only inside, reaches only to its
    tolerance.  Where p vanishes to within max(m, d) eps of ||x_a|| (column
    ``axis`` lies in the others' span: a duplicate, or m < d), c is 0 and
    the penalty term alone holds.  U must be positive: U = 0 fits exactly,
    where the bracket would have no width.

    p is found by modified Gram-Schmidt, each column orthogonalised twice
    against the directions kept before it, not by a QR, whose first call
    lifts a process's peak memory by about 0.5 MB.  A column of ``rest``
    whose remainder is within that same tolerance of its own norm lies in
    the span of those before it (a duplicate, or m < d) and is skipped, so
    a rank-deficient ``rest`` adds no noise direction to project out.  The
    proof needs no exact p: the defect e above is charged whatever p is.
    """
    col, rest = spec.data.x[:, axis], np.delete(spec.data.x, axis, axis=1)
    tol = max(spec.m, spec.d) * np.finfo(float).eps
    kept: list[np.ndarray] = []
    for v in rest.T:
        w = _remainder(v, kept)
        norm = math.sqrt(float(w @ w))
        if norm > tol * math.sqrt(float(v @ v)):
            kept.append(w / norm)
    p = _remainder(col, kept)
    pp = float(p @ p)
    in_span = pp <= tol**2 * float(col @ col)
    c = 0.0 if in_span else float(p @ spec.data.y) / pp
    h = abs(c) + u / spec.lambda_eff
    if not in_span:
        defect = max(abs(float(p @ col) - pp), float(np.abs(rest.T @ p).max(initial=0.0)))
        h = min((u * float(np.abs(p).max()) + defect * u / spec.lambda_eff) / pp, h)
    return Bracket(c - h, c + h)


def _remainder(v: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """v less its components along the orthonormal ``basis``, taken off one
    direction at a time, twice over (the second pass removes what the
    first left by rounding)."""
    for _ in range(2):
        for q in basis:
            v = v - float(q @ v) * q
    return v


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
    res = ccd_descend(spec, start, axis, line_steps)
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
    test suite checks on random d = 2 problems instead of assuming.
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

    Each probe descends from the edge start (``_edge_start``), taking
    ``line_steps`` (which cut zig-zags short but still stop only on a sweep
    without gain).  The edges are the certificate's vertex's, which its
    first offer always sets, so the points seen before the first probe must
    have been offered (``certified``): ``solve_locus`` offers the halting
    point.  ``seen`` lists the points in the order seen: the halting point,
    then the chop's midpoint, then the rounds' probes.
    """

    def __init__(self, spec: ProblemSpec, axis: int):
        self.spec = spec
        self.axis = axis
        self.seen: list[LocusPoint] = []
        self.cert = _Certificate(spec)
        self._offered = 0  # the points seen before this were offered
        self._edges: np.ndarray | None = None  # of the certificate's vertex, built at the first probe

    def __call__(self, t: float) -> float:
        pt = locus_value(self.spec, self.axis, t, self._edge_start(t), line_steps=True)
        self.seen.append(pt)
        return pt.value

    def _edge_start(self, t: float) -> Coefficients:
        """The lowest point at t on the lines through the certificate's
        vertex along ``_edges``, the vertex's own with only t moved among them."""
        if self._edges is None:
            self._edges = _edges(self.spec, self.cert.basis, self.axis)
        vertex = self.cert.warm.beta
        starts = vertex + (t - vertex[self.axis]) * self._edges
        values = objective_values(self.spec.data.x, self.spec.data.y, self.spec.lambda_eff, starts)
        return Coefficients(starts[int(values.argmin())])

    def certified(self) -> bool:
        """Whether ``cert`` is within ``GAP_TOL``, once offered the probes
        seen since the last check: all of them, not only the lowest, since
        where descents stall above the curve a higher probe can lie nearer
        the optimal vertex."""
        if len(self.seen) > self._offered:
            self.cert.offer(np.array([pt.beta.beta for pt in self.seen[self._offered :]]))
            self._offered = len(self.seen)
        return self.cert.gap <= GAP_TOL


def _snap(spec: ProblemSpec, betas: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(objective, vertex, its d planes) of the lowest vertex among the d +
    ``SNAP_SPARE`` planes nearest any of the points ``betas`` (rows), all
    solved as one stack by ``solve_linear_system``; the origin, on planes
    m..m+d-1, if all are singular.  Planes 0..m-1 are the rows, at distance
    |r_i| / ||x_i||_1, and m..m+d-1 the coefficients, at |beta_j|; ties go
    to the lower index, then to the earlier point."""
    x, y = spec.data.x, spec.data.y
    d = spec.d
    norms = np.abs(x).sum(axis=1)  # a zero row's plane is infinitely far
    far = np.full((len(betas), spec.m), np.inf)
    np.divide(np.abs(y - betas @ x.T), norms, out=far, where=norms > 0)
    near = np.argsort(np.hstack((far, np.abs(betas))), axis=1, kind="stable")[:, : d + SNAP_SPARE]
    combos = list(itertools.combinations(range(near.shape[1]), d))
    subsets = np.sort(near, axis=1)[:, combos].reshape(-1, d)
    # nearby points share most of their planes: each subset once, first seen first
    subsets = np.array(list(dict.fromkeys(map(tuple, subsets.tolist()))))
    normals = np.vstack((x, np.eye(d)))
    offsets = np.append(y, np.zeros(d))
    vertices, singular = solve_linear_system(normals[subsets], offsets[subsets])
    vertices[singular] = 0.0  # junk, ranked last below
    # ranked in blocks of one point's subsets, so the (vertices x m) block stays that size
    blocks = np.split(vertices, range(len(combos), len(vertices), len(combos)))
    values = np.concatenate([objective_values(x, y, spec.lambda_eff, v) for v in blocks])
    k = int(np.where(singular, np.inf, values).argmin())
    if singular[k]:
        # all are, so k is the origin: the d coefficient planes (beta = 0) are never singular
        subsets[k] = spec.m + np.arange(d)
    return objective_value(x, y, spec.lambda_eff, vertices[k]), vertices[k], subsets[k]


def _vertex_basis(spec: ProblemSpec, vertex: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """The simplex basis (``lp`` variable indices) of a vertex on the planes
    ``planes`` (as ``_snap`` numbers them): each other row's residual part
    and each other coefficient's part, by the sign of its value."""
    d, m = spec.d, spec.m
    off = np.ones(m + d, dtype=bool)
    off[planes] = False
    rows, cols = off[:m].nonzero()[0], off[m:].nonzero()[0]
    r = spec.data.y[rows] - spec.data.x[rows] @ vertex
    return np.concatenate((cols + d * (vertex[cols] < 0), 2 * d + rows + m * (r < 0)))


def _tight_planes(spec: ProblemSpec, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The d planes through the vertex of a simplex basis (``lp`` variable
    indices), as masks: the rows with neither residual part basic, and the
    coefficients with neither part basic."""
    d = spec.d
    active = np.ones(spec.m, dtype=bool)
    active[(basis[basis >= 2 * d] - 2 * d) % spec.m] = False
    zero = np.ones(d, dtype=bool)
    zero[basis[basis < 2 * d] % d] = False
    return active, zero


def _edges(spec: ProblemSpec, basis: np.ndarray, axis: int) -> np.ndarray:
    """Directions (rows) along which coordinate ``axis`` moves at unit rate
    from the vertex of a simplex basis, then ``axis``'s own unit vector.

    The vertex's d planes (``_tight_planes``) are independent, as the basis
    is; column k of the inverse of their normals keeps all but plane k
    tight, so it is the edge that leaves plane k.  Edges along which the
    axis stays (nearly) put are skipped.  With coordinate ``axis`` held at t
    near an optimal vertex, the restricted minimum moves off it along one of
    these edges (parametric programming), so near the optimum the curve runs
    along one of them.
    """
    active, zero = _tight_planes(spec, basis)
    normals = np.vstack((spec.data.x[active], np.eye(spec.d)[zero]))
    # solve, not inv: the same bits, through a LAPACK routine already loaded
    inverse = np.linalg.solve(normals, np.eye(spec.d))
    rates = inverse[axis]
    moving = np.abs(rates) > 1e-12 * np.abs(inverse).max(axis=0)
    return np.vstack(((inverse[:, moving] / rates[moving]).T, np.eye(spec.d)[axis]))


def _basis_dual(spec: ProblemSpec, basis: np.ndarray) -> np.ndarray:
    """A dual-feasible u read off a simplex basis (``lp`` variable indices).

    u = c_B^T B^-1: u_i = +1 on the rows whose rp_i is basic, -1 where rn_i
    is, and on the other rows, the active ones, the solution of
    s_j x_j . u = lambda_eff for each basic coefficient part (s_j = +1 for
    bp_j, -1 for bn_j), a square system, nonsingular as a basis is.
    Clipped to [-1, 1] and scaled by 1 / max(1, ||X^T u||_inf / lambda_eff),
    u is feasible whatever the basis, so y . u bounds the optimum from below
    without resting on the simplex's stopping test; at an optimal basis
    neither step moves it beyond rounding.
    """
    x, lam, d, m = spec.data.x, spec.lambda_eff, spec.d, spec.m
    residuals = basis[basis >= 2 * d] - 2 * d
    u = np.zeros(m)
    u[residuals % m] = np.where(residuals < m, 1.0, -1.0)
    parts = basis[basis < 2 * d]
    if parts.size:
        active, _ = _tight_planes(spec, basis)
        cols, s = parts % d, np.where(parts < d, 1.0, -1.0)
        # u is 0 on the active rows, so this sums the others' exact products
        a = s[:, None] * x[active][:, cols].T
        u[active] = np.clip(np.linalg.solve(a, lam - s * _exact_xtu(x[:, cols], u)), -1.0, 1.0)
    return u / max(1.0, float(np.abs(_exact_xtu(x, u)).max()) / lam)


def _exact_xtu(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """X^T u, each column's products summed exactly (``math.fsum``).  Where
    u_i = +-1 the products are exact too, so only the d active rows round:
    at lambda = 0 the dual box ||X^T u||_inf <= lambda_eff is about 1e-9, and
    a sum rounded over m rows would cost the bound about m * 1e-16 * max|x|
    / lambda_eff of its value."""
    return np.array(list(map(math.fsum, (x.T * u).tolist())))


class _Certificate:
    """The lowest snapped point offered so far, a lower bound on the optimum
    and their relative gap (f - bound) / f; 0 where f = 0 = f*.

    Each offer snaps its points to the lowest nearby vertex.  At the first,
    the dual point (``_basis_dual``) of that vertex's own basis
    (``_vertex_basis``) gives the bound y . u; where that falls short of
    ``GAP_TOL``, the simplex (``simplex_minimize``) runs once from there
    and a converged final basis bounds instead.  The basis's vertex is
    ``warm``, from whose edges later probes descend.  The point stays the
    search's own until it certifies: only a certified point gives way to a
    lower ``warm``, so a sloppy search stays visible."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.point: np.ndarray | None = None
        self.value, self.bound = np.inf, -np.inf
        self.warm: Coefficients | None = None
        self.basis: np.ndarray | None = None  # the basis of warm
        self._warm_value = np.inf

    def offer(self, betas: np.ndarray) -> None:
        """Snap the points ``betas`` (rows) and take the vertex (the lowest
        point if lower); the first offer then bounds the optimum."""
        x, y, lam = self.spec.data.x, self.spec.data.y, self.spec.lambda_eff
        beta = betas[int(objective_values(x, y, lam, betas).argmin())]
        value = objective_value(x, y, lam, beta)
        f_vertex, vertex, planes = _snap(self.spec, betas)
        if f_vertex <= value:
            beta, value = vertex, f_vertex
        first = self.point is None
        if value < self.value:
            self.point, self.value = beta, value
        if first:
            self._bound_at(_vertex_basis(self.spec, vertex, planes), vertex)
            if self.gap > GAP_TOL:
                sol = simplex_minimize(formulate(self.spec), self.basis)
                if sol.converged:
                    d = self.spec.d
                    self._bound_at(sol.basis, sol.x[:d] - sol.x[d : 2 * d])
        if self.gap <= GAP_TOL and self._warm_value < self.value:
            # the point certified on its own; warm, if lower, may replace it
            self.point, self.value = self.warm.beta, self._warm_value

    def _bound_at(self, basis: np.ndarray, vertex: np.ndarray) -> None:
        """Take the bound y . u of ``basis``'s dual point, and its vertex as ``warm``."""
        self.basis, self.warm = basis, Coefficients(vertex)
        self._warm_value = evaluate_objective(self.spec, vertex)
        self.bound = float(self.spec.data.y @ _basis_dual(self.spec, basis))

    @property
    def gap(self) -> float:
        return (self.value - self.bound) / self.value if self.value > 0 else 0.0


def solve_locus(spec: ProblemSpec, outer_search: str = "ternary") -> SolveResult:
    """Global solve: search the curve along the most influential axis.

    The halting point of unfrozen descent from zero (with line steps, as
    the probes take) is the first point of the curve, at its own coordinate
    on the axis.  It is snapped and offered to the certificate
    (``_Certificate``), which sets the vertex whose edges every later probe
    descends from; if it is within ``GAP_TOL`` of the certificate's
    dual bound the solve ends there, with one descent and no bracket built (an
    exact fit, where descent from zero halts at f = 0, always does).
    Otherwise ``proven_bracket`` builds the bracket from the certificate's
    lowest value, and the search runs on it to ``linesearch.TOLERANCE``, by
    ``outer_search`` (one of ``OUTER_SEARCHES``): the bracket holds the
    optimum's coordinate, and a descent that stalls above the curve can
    mislead the search only into an uncertified result.  Once the search has
    valued the bracket's midpoint, after every round, and once the search
    ends, the new points are offered; the first offer that certifies ends
    the solve.  ``converged`` is exactly that test, and a search that ends
    without it returns its own point uncertified.  ``iterations`` counts
    outer rounds (0: certified before any round), ``objective_evals`` curve
    points, the halting point included (1: certified at the halting point,
    2: at the bracket's midpoint).
    """
    if outer_search not in OUTER_SEARCHES:
        raise InvalidInputError(f"unknown outer search {outer_search!r}")
    t0 = time.perf_counter()
    search = ternary_min if outer_search == "ternary" else quadrature_min
    curve = _CurveEvaluator(spec, search_axis(spec.data))
    halt = ccd_descend(spec, np.zeros(spec.d), line_steps=True)
    t = float(halt.beta.beta[curve.axis])
    curve.seen.append(LocusPoint(t, halt.beta, halt.objective, halt.converged))
    rounds = 0
    if not curve.certified():
        bracket = proven_bracket(spec, curve.axis, curve.cert.value)
        rounds = search(curve, bracket, curve.certified).rounds
        curve.certified()
    cert = curve.cert
    return SolveResult(
        beta=Coefficients(cert.point),
        objective=cert.value,
        solver_id=f"locus_{outer_search}",
        iterations=rounds,
        objective_evals=len(curve.seen),
        wall_time=time.perf_counter() - t0,
        converged=bool(cert.gap <= GAP_TOL),
    )

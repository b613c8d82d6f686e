"""Two-stage global search over the locus of axis-wise minima.

Plain coordinate descent on this objective can halt at a point where every
axis-parallel direction increases yet a diagonal direction still descends.
Such halting points are not isolated: they form a single curve through the
coefficient space that is monotone in every coordinate, and the objective
restricted to that curve is convex.  That structure makes a two-stage search
sound: pick one axis, bracket-search the objective along it, and let every
probe value be the result of a restricted coordinate descent (the probed
coordinate frozen) which lands on the corresponding point of the curve.

``solve_locus`` runs the outer ternary or quadrature search, warm-starting
inner descents from the nearest evaluated probe (neighbouring points of the
curve are close, so this is a large speedup; results agree with cold starts
to within tolerance, not bit-for-bit).  ``sample_locus`` traces the curve on
a fixed grid, which is how the monotonicity and convexity claims are tested
empirically.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace

import numpy as np

from .ccd import CcdConfig, ccd_descend
from .errors import InvalidInputError
from .linesearch import Bracket, SearchConfig, expand_bracket, quadrature_min, ternary_min
from .model import Coefficients, Dataset, ProblemSpec, SolveResult, evaluate_objective
from .rng import Pcg32

OUTER_SEARCHES = ("ternary", "quadrature")

# two axis searches landing this close count as independent confirmation;
# the looser value is the economy short-circuit beyond the oracle-held sizes
AXIS_AGREEMENT_RTOL = 1e-7
ECONOMY_AGREEMENT_RTOL = 1e-6

# the dense refinement's grid: rounds, and probes per round
REFINE_ROUNDS = 4
REFINE_PROBES = 16


@dataclass(frozen=True)
class LocusConfig:
    """Outer-search controls; ``inner`` configures the restricted descents.

    ``outer_tolerance`` and ``outer_probes`` set the bracket search along each
    axis (``SearchConfig``, which also checks them); the axes are searched in
    influence order (see ``solve_locus``).
    """

    outer_search: str = "ternary"
    outer_tolerance: float = 1e-9
    inner: CcdConfig = field(default_factory=CcdConfig)
    outer_probes: int = 8

    def __post_init__(self):
        if self.outer_search not in OUTER_SEARCHES:
            raise InvalidInputError(f"unknown outer search {self.outer_search!r}")
        self.search_config()  # SearchConfig checks the tolerance and the probe count

    def search_config(self) -> SearchConfig:
        return SearchConfig(tolerance=self.outer_tolerance, probes=self.outer_probes)


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
    inner: CcdConfig | None = None,
    warm: Coefficients | None = None,
) -> LocusPoint:
    """Minimise the objective over all coordinates except ``axis`` (held at t).

    Starts from ``warm`` when given, else from zero.  Inner non-convergence is
    reported on the returned point rather than raised: the value is still a
    valid (if possibly loose) upper bound on the curve value.
    """
    if not 0 <= axis < spec.d:
        raise InvalidInputError(f"axis {axis} out of range for d={spec.d}")
    inner = inner or CcdConfig()
    if inner.frozen_axis != axis:
        inner = replace(inner, frozen_axis=axis)
    start = warm.beta.copy() if warm is not None else np.zeros(spec.d)
    start[axis] = t
    res = ccd_descend(spec, Coefficients(start), inner)
    return LocusPoint(t, res.beta, res.objective, res.converged)


def sample_locus(
    spec: ProblemSpec,
    axis: int,
    bracket: Bracket,
    n: int,
    inner: CcdConfig | None = None,
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
        pt = locus_value(spec, axis, float(t), inner, warm)
        warm = pt.beta
        points.append(pt)
    return points


class _CurveEvaluator:
    """Evaluates the curve value at t, keeping the best of two descents.

    Bracket searches jump across the bracket, so the previous call is often
    far away; warm-starting the inner descent from a distant point can drag
    it onto the wrong branch of the subspace's own halting curve.  Each probe
    therefore descends both from the nearest previously evaluated point and
    from the cold zero start, keeping the better result.  (For one or two
    variables the subspace problem is at most one-dimensional, every descent
    is exact, and the two starts agree.)

    Candidate descents run at a relaxed sweep tolerance; whichever wins is
    resumed at the configured tolerance when it comes within ``refine_margin``
    of the incumbent, so contenders are fully converged while clearly losing
    probes stay cheap.

    Every probe descent here, the dense refinement's fan of starts included,
    runs with ``line_steps``: a sweep that gains more than half of what the
    previous sweep gained is a zig-zag along a ridge, and an exact step along
    its displacement cuts it short.  The descents still stop only on a sweep
    without gain, so probe points stay axis-wise minima of the subspace.
    ``sample_locus`` and the final polish of ``solve_locus`` use the
    configured inner descent as given, which by default takes no line steps.

    ``remember`` records a probe point; ``seen`` lists them in the order seen,
    and the distinct probe coordinates are also kept sorted, so the nearest
    one is a bisection away.
    """

    def __init__(self, spec: ProblemSpec, axis: int, inner: CcdConfig):
        self.spec = spec
        self.axis = axis
        # economy mode beyond the oracle-verified sizes: one start per probe
        # and tighter sweep budgets; contenders are still refined at the
        # configured tolerance (the budget only truncates geometric zig-zags,
        # which the line steps mostly cut short before it is reached)
        self.economy = spec.d > 3
        inner = replace(inner, frozen_axis=axis, line_steps=True)
        self.inner = (
            replace(inner, max_sweeps=min(inner.max_sweeps, 150)) if self.economy else inner
        )
        self.fast_inner = replace(
            inner,
            sweep_tolerance=max(inner.sweep_tolerance, 1e-7),
            max_sweeps=min(inner.max_sweeps, 40 if self.economy else 150),
        )
        self.refine_margin_scale = 1e-4 if self.economy else 1e-3
        self.seen: list[LocusPoint] = []
        # distinct probe coordinates, ascending, each with its first-seen point
        self._ts: list[float] = []
        self._firsts: list[int] = []
        self.calls = 0
        self.inner_failures = 0
        self.best: LocusPoint | None = None

    def remember(self, pt: LocusPoint) -> None:
        ts = self._ts
        i = bisect_left(ts, pt.t)
        if i == len(ts) or ts[i] != pt.t:
            ts.insert(i, pt.t)
            self._firsts.insert(i, len(self.seen))
        self.seen.append(pt)

    def _nearest(self, t: float) -> Coefficients | None:
        """The closest point seen; among equal distances the first one seen."""
        ts = self._ts
        if not ts:
            return None
        i = bisect_left(ts, t)
        near = min(abs(ts[k] - t) for k in (i - 1, i) if 0 <= k < len(ts))
        # rounded distances are monotone away from t, so every point at the
        # nearest distance sits in one run on either side of i
        first = len(self.seen)
        k = i - 1
        while k >= 0 and abs(ts[k] - t) == near:
            first = min(first, self._firsts[k])
            k -= 1
        k = i
        while k < len(ts) and abs(ts[k] - t) == near:
            first = min(first, self._firsts[k])
            k += 1
        return self.seen[first].beta

    def __call__(self, t: float) -> float:
        warm = self._nearest(t)
        if self.economy and warm is not None:
            pt = locus_value(self.spec, self.axis, t, self.fast_inner, warm)
        else:
            pt = locus_value(self.spec, self.axis, t, self.fast_inner, None)
            if warm is not None and self.spec.d > 2:
                alt = locus_value(self.spec, self.axis, t, self.fast_inner, warm)
                if alt.value < pt.value:
                    pt = alt
        refine_margin = (
            self.refine_margin_scale * max(1.0, abs(self.best.value)) if self.best else np.inf
        )
        if self.best is None or pt.value <= self.best.value + refine_margin:
            refined = locus_value(self.spec, self.axis, t, self.inner, pt.beta)
            if refined.value < pt.value:
                pt = refined
        self.calls += 1
        self.inner_failures += 0 if pt.inner_converged else 1
        self.remember(pt)
        if self.best is None or pt.value < self.best.value:
            self.best = pt
        return pt.value


def _search_one_axis(
    spec: ProblemSpec, axis: int, cfg: LocusConfig
) -> tuple[LocusPoint, int, int, int, bool]:
    """Outer search along one axis; returns (best point, rounds, evals, failures, converged).

    Each axis search is fully independent (no state carried over from other
    axes) so that agreement between two axes is genuine confirmation rather
    than one search inheriting the other's branch.
    """
    curve = _CurveEvaluator(spec, axis, cfg.inner)
    bracket = expand_bracket(curve, default_bracket(spec.data))
    search = ternary_min if cfg.outer_search == "ternary" else quadrature_min
    outer = search(curve, bracket, cfg.search_config())
    return curve.best, outer.rounds, curve.calls, curve.inner_failures, outer.converged


def _start_fan(incumbent: LocusPoint, axis: int, count: int) -> list[Coefficients]:
    """Deterministic fan of descent starts spread around the incumbent.

    Halting-point basins interleave at close range near the optimum, and the
    cold and warm-chained starts can all sit in the same wrong basin.  The
    fan perturbs every free coordinate by a reproducible PCG32 draw scaled to
    the coordinate's magnitude, which is enough to land in neighbouring
    basins with high probability across a dozen starts.
    """
    rng = Pcg32(0x5EED + axis)
    base = incumbent.beta.beta
    fan = []
    for _ in range(count):
        start = base.copy()
        for j in range(start.size):
            if j != axis:
                start[j] += rng.uniform_in(-1.0, 1.0) * max(1.0, abs(base[j]))
        fan.append(Coefficients(start))
    return fan


def _dense_refine(
    spec: ProblemSpec,
    axis: int,
    incumbent: LocusPoint,
    cfg: LocusConfig,
    width: float,
    fan: int = 12,
) -> tuple[LocusPoint, int, int]:
    """Grid refinement around the incumbent's frozen coordinate.

    With three or more variables the measured curve is only piecewise convex
    (inner descents switch branches at isolated coordinates), so a bracket
    search can discard the interval holding the true minimum on the strength
    of one comparison near a jump.  A few rounds of dense probing around the
    winning coordinate recover such near-misses; each round re-centres on the
    best point seen and shrinks to one grid cell.  A deterministic fan of
    spread-out descent starts at the incumbent coordinate seeds the probing
    with branches the chained warm starts cannot reach.
    """
    curve = _CurveEvaluator(spec, axis, cfg.inner)
    curve.remember(incumbent)
    curve.best = incumbent
    margin = curve.refine_margin_scale * max(1.0, abs(incumbent.value))
    for start in _start_fan(incumbent, axis, fan):
        pt = locus_value(spec, axis, incumbent.t, curve.fast_inner, start)
        if pt.value <= curve.best.value + margin:
            refined = locus_value(spec, axis, incumbent.t, curve.inner, pt.beta)
            if refined.value < pt.value:
                pt = refined
        curve.calls += 1
        curve.remember(pt)
        if pt.value < curve.best.value:
            curve.best = pt
    w = width
    for _ in range(REFINE_ROUNDS):
        center = curve.best.t
        for t in np.linspace(center - w, center + w, REFINE_PROBES):
            curve(float(t))
        w *= 2.0 / (REFINE_PROBES - 1)
    return curve.best, curve.calls, curve.inner_failures


def solve_locus(spec: ProblemSpec, cfg: LocusConfig | None = None) -> SolveResult:
    """Global solve: outer bracket search over the curve values along an axis.

    Each initial bracket is expanded until it provably contains the outer
    minimum, then searched with the configured method.  Axes are searched
    in influence order, keeping the best point: the inner descent is
    exact for subspaces of at most one free variable, but with three or more
    variables it can stall on a non-global branch of the subspace's own
    halting curve, and which frozen axis suffers depends on the data.  Up to
    three variables every axis is scanned (this is the envelope on which the
    solver is held to the exhaustive-enumeration oracle); beyond that the
    scan short-circuits once two independent axis searches agree to a tight
    relative tolerance, with a stalled, clearly worse axis never counting as
    confirmation.  A dense grid refinement then recovers near-misses that a
    bracket search can suffer on the measured (only piecewise convex) curve,
    rotating over every coordinate of the incumbent while it keeps improving
    (for the larger best-effort sizes: one pass on the winning axis), and one
    unrestricted descent snaps the final point onto an exact axis-wise
    minimum.

    ``iterations`` counts outer shrink rounds summed over axes;
    ``objective_evals`` counts curve evaluations.  The result is flagged
    non-converged if any outer search ran out of rounds or more than 10% of
    inner descents failed to converge.
    """
    cfg = cfg or LocusConfig()
    t0 = time.perf_counter()
    axes = axes_by_influence(spec.data)

    best: LocusPoint | None = None
    best_axis = axes[0]
    axis_values = []
    rounds = 0
    calls = 0
    failures = 0
    outer_ok = True
    confirmations = 0
    for axis in axes:
        axis_best, axis_rounds, axis_calls, axis_failures, axis_conv = _search_one_axis(
            spec, axis, cfg
        )
        axis_values.append(axis_best.value)
        rounds += axis_rounds
        calls += axis_calls
        failures += axis_failures
        outer_ok = outer_ok and axis_conv
        agree_tol = (
            ECONOMY_AGREEMENT_RTOL if spec.d > 3 else AXIS_AGREEMENT_RTOL
        ) * max(1.0, abs(best.value) if best else 1.0)
        if best is None:
            best, best_axis = axis_best, axis
            confirmations = 1
        elif axis_best.value < best.value - agree_tol:
            best, best_axis = axis_best, axis  # better branch: needs fresh confirmation
            confirmations = 1
        elif abs(axis_best.value - best.value) <= agree_tol:
            confirmations += 1  # independent frozen axis reproduced the value
        # agreement can still be two axes landing on the same stalled point
        # (a full-space halting point lies on every axis' curve), so the
        # short-circuit only applies beyond the oracle-verified sizes
        if spec.d > 3 and confirmations >= 2:
            break
    if spec.d > 2:
        width = 0.01 * default_bracket(spec.data).width
        # Refinement effort follows the evidence.  When every axis search
        # lands on the same value the result is corroborated and one light
        # pass suffices; disagreement means at least one axis stalled, so
        # the refinement rotates over every coordinate with fans of
        # scattered starts (repeating while it improves), which escapes
        # near-optimum micro-branches no single axis reaches.  Beyond three
        # variables a single economy pass protects the time budget.
        spread = max(axis_values) - min(axis_values)
        disagree = spread > AXIS_AGREEMENT_RTOL * max(1.0, abs(best.value))
        if spec.d == 3 and disagree:
            passes, refine_axes, fan = 4, list(range(spec.d)), 12
        else:
            passes, refine_axes, fan = 1, [best_axis], 0 if spec.d == 3 else 4
        for _ in range(passes):
            improved = False
            for axis in refine_axes:
                seeded = LocusPoint(float(best.beta.beta[axis]), best.beta, best.value, True)
                cand, refine_calls, refine_failures = _dense_refine(
                    spec, axis, seeded, cfg, width=width, fan=fan
                )
                calls += refine_calls
                failures += refine_failures
                if cand.value < best.value - 1e-9 * max(1.0, abs(best.value)):
                    improved = True
                if cand.value < best.value:
                    best = cand
            if not improved:
                break
    converged = outer_ok and failures <= 0.1 * calls
    # final snap: one unrestricted descent moves the searched coordinate from
    # its bracket-precision value onto the exact axis-wise minimum nearby
    polish = ccd_descend(spec, best.beta, replace(cfg.inner, frozen_axis=None))
    beta = polish.beta if polish.objective <= best.value else best.beta
    return SolveResult(
        beta=beta,
        objective=evaluate_objective(spec, beta),
        solver_id="locus_ternary" if cfg.outer_search == "ternary" else "locus_quadrature",
        iterations=rounds,
        objective_evals=calls,
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )

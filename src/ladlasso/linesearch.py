"""One-dimensional minimisers for convex piecewise-linear functions.

A function of the form

    g(t) = constant + sum_k weight_k * |t - location_k|

is convex and attains its minimum at a weighted median of the breakpoint
locations; ``weighted_median_min`` computes that exactly.  Its rule, the
half-weight crossing with the midpoint of a flat segment, lives in
``weighted_median_sorted``, and its sort in ``weighted_median_from``, which
the coordinate descent's kernels call too.
When only an evaluator is available two bracket searches are provided,
two round rules over one loop (``_chop``): ``ternary_min`` (a
golden-section chop: two new probes per round, each round after the first
shrinks the bracket to 0.382 of its width) and ``quadrature_min`` (a fixed
interior grid of probes per round, so the work per round is constant and
data independent - the control-flow shape that maps onto wide SIMD
hardware without reductions).
``expand_bracket`` grows a bracket until it provably contains a minimum of a
convex evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, UnboundedDirectionError

Evaluator = Callable[[float], float]
Done = Callable[[], bool]

# 1/phi: a golden-section point splits [lo, hi] at lo + GOLDEN * (hi - lo)
GOLDEN = (5**0.5 - 1) / 2
# the interior probes of a quadrature round
PROBES = 8
# either search stops once its bracket is this fraction of its first width,
# so the stopping rule is scale free
TOLERANCE = 1e-9
# the round cap of either search: a bracket can stop shrinking at rounding
# short of its tolerance
MAX_ROUNDS = 200
# the extensions ``expand_bracket`` makes before calling a direction unbounded
MAX_DOUBLINGS = 60


@dataclass(frozen=True, eq=False)
class PiecewiseLinear1D:
    """g(t) = constant + sum_k weights[k] * |t - locations[k]|."""

    locations: np.ndarray
    weights: np.ndarray
    constant: float = 0.0

    def __post_init__(self):
        locs = np.atleast_1d(np.array(self.locations, dtype=float))
        w = np.atleast_1d(np.array(self.weights, dtype=float))
        if locs.ndim != 1 or locs.shape != w.shape:
            raise InvalidInputError("locations and weights must be 1-D and the same length")
        if not (np.isfinite(locs).all() and np.isfinite(w).all()):
            raise InvalidInputError("breakpoints must be finite")
        if (w < 0).any():
            raise InvalidInputError("breakpoint weights must be nonnegative")
        if not np.isfinite(self.constant) or self.constant < 0:
            raise InvalidInputError("constant must be finite and nonnegative")
        locs.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "constant", float(self.constant))

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def __call__(self, t: float) -> float:
        return self.constant + float(np.abs(t - self.locations) @ self.weights)

    def slopes_at(self, t: float, atol: float = 0.0) -> tuple[float, float]:
        """One-sided derivatives (left, right) at t.

        Breakpoints within ``atol`` of t are treated as sitting exactly at t,
        which is what makes the test usable on coordinates produced by
        floating-point descent steps.
        """
        below = self.locations < t - atol
        above = self.locations > t + atol
        w_below = float(self.weights[below].sum())
        w_above = float(self.weights[above].sum())
        w_at = self.total_weight - w_below - w_above
        return w_below - w_at - w_above, w_below + w_at - w_above


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise InvalidInputError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise InvalidInputError(f"bracket needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class SearchResult:
    t: float
    value: float
    rounds: int
    evals: int
    converged: bool
    bracket: Bracket


def weighted_median_sorted(locations: np.ndarray, cumulative: np.ndarray) -> float:
    """Weighted-median minimiser from sorted locations and their cumulative weights.

    Returns the first location where the cumulative weight reaches half the
    total (the last entry); if it hits one half exactly the minimum is flat
    between two breakpoints and the midpoint of that segment is returned.
    """
    total = cumulative[-1]
    half = 0.5 * total
    k = int(cumulative.searchsorted(half))
    if k + 1 < locations.size and abs(cumulative[k] - half) <= 1e-12 * total:
        return 0.5 * (locations[k] + locations[k + 1])
    return float(locations[min(k, locations.size - 1)])


def weighted_median_from(locations: np.ndarray, weights: np.ndarray, order: np.ndarray):
    """Weighted-median minimiser of unsorted breakpoints, sorted from ``order``.

    ``order`` is any permutation of the breakpoints: the identity sorts them
    from scratch, and the permutation that sorted similar breakpoints before
    leaves them nearly sorted, which the stable sort (numpy's timsort) then
    finishes in about linear time.  Returns the minimiser and the permutation
    that sorts the breakpoints now.
    """
    start = locations[order]
    perm = start.argsort(kind="stable")
    order = order[perm]
    return weighted_median_sorted(start[perm], weights[order].cumsum()), order


def weighted_median_min(g: PiecewiseLinear1D) -> tuple[float, float]:
    """Exact minimiser of a convex piecewise-linear function, and its value.

    The minimiser is ``weighted_median_sorted`` of the breakpoints in stable
    location order.
    """
    if g.locations.size == 0:
        raise DegenerateInputError("need at least one breakpoint")
    if g.total_weight <= 0.0:
        raise DegenerateInputError("total breakpoint weight must be positive")
    t_star, _ = weighted_median_from(g.locations, g.weights, np.arange(g.locations.size))
    return t_star, g(t_star)


def ternary_min(g: Evaluator, bracket: Bracket, done: Done | None = None) -> SearchResult:
    """Golden-section ternary chop (Kiefer 1953) for a convex evaluator.

    Each step compares two interior probes, drops the outer segment beside
    the higher one and keeps the lower, which sits at a golden-section point
    of the bracket left, so one new probe at the mirror point restores the
    pair.  A round is two new probes: the first places the pair at 0.382 and
    0.618 of the bracket, later ones take two steps, so after k rounds the
    bracket is 0.618**(2k - 1) of its width.  The bracket's midpoint is
    valued first.  Returns the best point evaluated (the final bracket
    midpoint unless an earlier probe was strictly better), so the result is
    never worse than the value at the input bracket midpoint.  ``done``, if
    given, is asked once the midpoint is valued and again after each round;
    once it holds the search stops there, with the rounds and evaluations so
    far and ``converged`` set.
    """
    return _chop(_golden_rounds, g, bracket, done)


def quadrature_min(g: Evaluator, bracket: Bracket, done: Done | None = None) -> SearchResult:
    """Fixed-grid bracket search: ``PROBES`` equally spaced interior points per
    round, then shrink to the two grid intervals adjacent to the best probe.

    Every round does identical work regardless of the data, and the bracket
    width shrinks by the factor 2/(PROBES+1) per round; the midpoint, the
    result and ``done`` as in ``ternary_min``.
    """
    return _chop(_grid_rounds, g, bracket, done)


def _golden_rounds(g: Evaluator, lo: float, hi: float) -> Iterator[tuple[float, float]]:
    """The bracket after each round of ``ternary_min``'s steps."""
    # the pair t1 < t2 sits at the golden-section points of [lo, hi]; the
    # probe a step places is the one whose value is None
    t1, t2 = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    v1 = v2 = None
    while True:
        for _ in range(2):
            if v1 is None:
                v1 = g(t1)
            else:
                v2 = g(t2)
            if v2 is None:
                continue  # the first round places t2 before comparing
            if v1 < v2:
                hi, t2, v2 = t2, t1, v1
                t1, v1 = hi - GOLDEN * (hi - lo), None
            else:
                lo, t1, v1 = t1, t2, v2
                t2, v2 = lo + GOLDEN * (hi - lo), None
        yield lo, hi


def _grid_rounds(g: Evaluator, lo: float, hi: float) -> Iterator[tuple[float, float]]:
    """The bracket after each round of ``quadrature_min``'s grid."""
    while True:
        h = (hi - lo) / (PROBES + 1)
        ts = lo + h * np.arange(1, PROBES + 1)
        t = float(ts[int(np.argmin([g(float(probe)) for probe in ts]))])
        lo, hi = max(lo, t - h), min(hi, t + h)
        yield lo, hi


def _chop(rule, g: Evaluator, bracket: Bracket, done: Done | None) -> SearchResult:
    """The loop both searches share: value the bracket's midpoint, then run
    ``rule``'s rounds until ``done`` holds, the bracket is ``TOLERANCE`` of
    its first width or ``MAX_ROUNDS`` pass, and, unless ``done`` held,
    value the final midpoint; the lowest point valued wins, ties to the
    earliest."""
    done = done or (lambda: False)
    lo, hi = bracket.lo, bracket.hi
    target = TOLERANCE * (hi - lo)
    seen: list[tuple[float, float]] = []

    def value(t: float) -> float:
        seen.append((t, g(t)))
        return seen[-1][1]

    value(bracket.mid)
    rounds, stopped = 0, done()
    brackets = rule(value, lo, hi)
    while not stopped and (hi - lo) > target and rounds < MAX_ROUNDS:
        lo, hi = next(brackets)
        rounds += 1
        stopped = done()
    if not stopped:
        value(0.5 * (lo + hi))
    t, v = min(seen, key=lambda point: point[1])
    converged = stopped or (hi - lo) <= target
    return SearchResult(t, v, rounds, len(seen), converged, Bracket(lo, hi))


def expand_bracket(g: Evaluator, bracket: Bracket) -> Bracket:
    """Double a bracket until its interior holds a point strictly below both ends.

    For a convex evaluator that certificate implies a minimum lies inside.
    The locus search passes a bracket already proven to hold the minimum
    (``locus.proven_bracket``), so there it only guards against rounding and
    against descents that stall above the curve.
    The bracket is extended on whichever side has the lower endpoint value
    (both sides on an exact tie); `UnboundedDirectionError` after
    ``MAX_DOUBLINGS`` extensions means the function keeps descending, which a
    penalised objective cannot do.
    """
    lo, hi = bracket.lo, bracket.hi
    g_lo = g(lo)
    g_hi = g(hi)
    for _ in range(MAX_DOUBLINGS):
        g_mid = g(0.5 * (lo + hi))
        if g_mid < g_lo and g_mid < g_hi:
            return Bracket(lo, hi)
        step = hi - lo
        if g_lo < g_hi:
            lo -= step
            g_lo = g(lo)
        elif g_hi < g_lo:
            hi += step
            g_hi = g(hi)
        else:
            lo -= step
            hi += step
            g_lo = g(lo)
            g_hi = g(hi)
    raise UnboundedDirectionError(
        f"no interior minimum found after {MAX_DOUBLINGS} bracket extensions"
    )

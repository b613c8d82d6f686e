"""Standard-form LP recasting of the objective and a narrow-tableau simplex.

Splitting each coefficient and each residual into nonnegative positive/
negative parts turns the objective into a linear cost over 2d+2m nonnegative
variables subject to m equality constraints

    x_i . (bp - bn) + rp_i - rn_i = y_i ,

with cost lambda_eff on the coefficient parts and 1 on the residual parts.
Because each back-to-back pair appears with opposite signs in the same
column pair, a basis can hold at most one member of a pair, so at any basic
solution min(bp_j, bn_j) = min(rp_i, rn_i) = 0 without extra constraints.
Splitting the residuals by the sign of y also hands us a feasible starting
basis for free, so no phase-1 is ever needed.  Any vertex's basis is a
feasible start too: the residual parts of the rows off its planes and the
parts of its nonzero coefficients, each chosen by the sign of its value.

The simplex uses Dantzig pricing with a permanent switch to Bland's rule
after a degenerate streak, and the pivot budget bounds the loop in any case;
the entering tie-break goes to the lowest variable index.  It pivots a narrow
tableau of width 2d+2, so a pivot costs O(m.d) and memory is O(m.d):

- The column of a pair's negative part (bn_j, rn_i) is always the negation
  of its positive part's (bp_j, rp_i), so only the positive part's column is
  stored, and the pivot negates it when the negative part enters.  Two price
  rows hold the reduced costs of the positive and of the negative parts.
- A basic residual has a unit column and its partner minus that column, so
  the partner's reduced cost is exactly its own cost plus the basic one's,
  1 + 1 = 2, whatever pivots happen elsewhere; neither can ever enter.  Only
  the residual pairs of active rows (rows whose residual is nonbasic) are
  stored, and a row that turns active prices its nonbasic residual at 2.
  There are at most d active rows, one per basic coefficient, so d+1 slots
  (one spare for the row that turns active during a pivot) sit next to the d
  coefficient pairs and the right-hand side.

The ratio test takes a long step.  Along the edge on which a variable
enters, the objective is convex and piecewise linear in the step length:
where a basic variable would cross zero, at ratio rhs_i / col_i, its pair
partner can take over instead of blocking the step, and the slope rises by
2 c_i col_i (c_i is 1 for a residual, lambda_eff for a coefficient).  So the
rows are sorted by ratio, ties going to the lowest basic index, the slope is
accumulated from the entering price, and the first row at which it reaches
-tol leaves: the step ends at a weighted median of the breakpoints, the
minimum along the edge.  With d = 1 that is the problem's own optimum, found
in one pivot.  A step that passes no breakpoint is the textbook pivot.

Every row passed before the leaving one flips: its basic variable hands over
to the partner, whose column is the negation, so the basis matrix has one
column negated and its inverse the same row negated.  The tableau row,
right-hand side included, is negated.  The basic cost is unchanged, but row
i's share c_i T_i of the positive parts' prices changes sign, so 2 c_i T_i
is added to their price row and subtracted from the negative parts' price
row; the objective cell of that row takes the same update.  The solution is
returned in the full 2d+2m space.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SimplexError
from .model import Coefficients, ProblemSpec, SolveResult, evaluate_objective

# "dantzig_with_bland_fallback" prices by Dantzig's rule until a degenerate
# streak as long as the column count, then by Bland's for good; "bland" from
# the start
PIVOT_RULE = "dantzig_with_bland_fallback"
# the pivot budget; None allows 50 per column of the standard form
MAX_PIVOTS: int | None = None
# a pivot column entry above FEASIBILITY_TOL bounds the step, and a reduced
# cost below -FEASIBILITY_TOL * min(1, lambda_eff) prices a column in: once
# every row fits (m < d at lambda = 0) the prices scale with lambda_eff, which
# is 1e-9 at lambda = 0, so an absolute tolerance would price none in
FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LpStandardForm:
    """min cost.v  s.t.  constraint_matrix @ v = rhs,  v >= 0.

    Column blocks, in order: bp (d), bn (d), rp (m), rn (m).  The originating
    problem is kept so solutions can be mapped back and revalidated; the
    solver reads the data from it directly.  The dense (m, 2d+2m) constraint
    matrix and the variable names are derived from it on first access, for
    export and structural checks.
    """

    cost: np.ndarray
    rhs: np.ndarray
    spec: ProblemSpec

    @property
    def d(self) -> int:
        return self.spec.d

    @property
    def m(self) -> int:
        return self.spec.m

    @cached_property
    def constraint_matrix(self) -> np.ndarray:
        x, m = self.spec.data.x, self.m
        return np.hstack([x, -x, np.eye(m), -np.eye(m)])

    @cached_property
    def variable_names(self) -> tuple[str, ...]:
        d, m = self.d, self.m
        return tuple(
            [f"bp_{j}" for j in range(d)]
            + [f"bn_{j}" for j in range(d)]
            + [f"rp_{i}" for i in range(m)]
            + [f"rn_{i}" for i in range(m)]
        )


@dataclass(eq=False)
class SimplexSolution:
    """Raw simplex output in the full 2d+2m variable space."""

    x: np.ndarray
    objective: float
    pivots: int
    converged: bool
    basis: np.ndarray
    objective_trace: list[float]


def formulate(spec: ProblemSpec) -> LpStandardForm:
    """Build the standard form for a problem."""
    cost = np.ones(2 * spec.d + 2 * spec.m)
    cost[: 2 * spec.d] = spec.lambda_eff
    return LpStandardForm(cost, spec.data.y.copy(), spec)


def initial_basis(lp: LpStandardForm) -> np.ndarray:
    """Sign-split residual basis: rp_i where y_i >= 0, else rn_i.  Always feasible."""
    d, m = lp.d, lp.m
    return 2 * d + np.arange(m) + m * (lp.rhs < 0)


def simplex_minimize(lp: LpStandardForm, start: np.ndarray | None = None) -> SimplexSolution:
    """Primal simplex with a long-step ratio test, from the feasible basis
    ``start`` (m variable indices) if given, else from the sign-split basis.

    A start's narrow tableau is B^-1 [X | e_A | y], A its k active rows,
    from one k x k solve.  Raises SimplexError on detected unboundedness,
    which a well-formed formulation cannot produce; treat it as a bug signal.
    """
    x, b, c = lp.spec.data.x, lp.rhs, lp.cost
    m, d = x.shape
    n = c.size
    tol = FEASIBILITY_TOL
    price_tol = tol * min(1.0, lp.spec.lambda_eff)
    max_pivots = MAX_PIVOTS if MAX_PIVOTS is not None else 50 * n

    idx = np.arange(n)
    # mate[v] is the other member of v's pair
    mate = np.concatenate((idx[d : 2 * d], idx[:d], idx[2 * d + m :], idx[2 * d : 2 * d + m]))
    # Column k holds the column of a positive part (bp_j for k < d, then the
    # rp_i of active rows; the negative part's column is its negation) and the
    # last column the right-hand side.  Row m holds the reduced costs of the
    # positive parts, row m + 1 those of the negative parts and the objective;
    # +inf prices an empty slot and pads row m, so the two price rows read as
    # one contiguous vector.
    width = 2 * d + 1
    tableau = np.zeros((m + 2, width + 1))
    rhs = tableau[:m, width]
    if start is None:
        # Not merged into the started branch below: from initial_basis(lp)
        # that builds this tableau bit for bit, but its index gathers and
        # empty solve cost more than these sign flips.  On a 2-core x86 VM,
        # mean best-of-30 solve_lp went from about 95 to 160 us at d 1-3,
        # m 4-12, and from 1.28 to 1.40 ms at d 5, m 200-800.
        basis = initial_basis(lp)
        sign = np.where(b >= 0, 1.0, -1.0)
        tableau[:m, :d] = sign[:, None] * x
        tableau[:m, width] = sign * b
        # every starting basic variable is a residual part, of cost 1 as
        # formulate builds them
        col_sums = tableau[:m, :d].sum(axis=0)
        tableau[m, :d] = c[:d] - col_sums
        tableau[m + 1, :d] = c[d : 2 * d] + col_sums
        tableau[m:, d:] = math.inf
        tableau[m + 1, width] = rhs.sum()
        # var[p] is the variable priced at prices[p]
        var = list(range(d)) + [-1] * (d + 2) + list(range(d, 2 * d)) + [-1] * (d + 1)
        free = list(range(width - 1, d - 1, -1))
    else:
        basis = start.copy()
        parts = basis < 2 * d
        sgn = np.where(np.where(parts, basis < d, basis < 2 * d + m), 1.0, -1.0)
        on = (basis - 2 * d) % m  # the row of each residual part
        active, cols = np.flatnonzero(np.bincount(on[~parts], minlength=m) == 0), basis[parts] % d
        k = len(active)
        v = np.zeros((m, d + k + 1))  # the columns X, e_A and y
        v[:, :d], v[active, d + np.arange(k)], v[:, -1] = x, 1.0, b
        z = np.linalg.solve(x[np.ix_(active, cols)], v[active])
        t = v[on] - x[np.ix_(on, cols)] @ z
        t[parts] = z
        t *= sgn[:, None]
        t[:, cols] = 0.0  # a basic column is exactly +-e_row
        t[parts.nonzero()[0], cols] = sgn[parts]
        t[:, -1] = np.maximum(t[:, -1], 0.0)  # rounding must not start it infeasible
        tableau[:m, np.r_[: d + k, width]] = t
        dual = c[basis] @ t  # c_B^T B^-1 [X | e_A | y]
        cost = np.append(c[:d], c[2 * d + active])  # a pair's two parts cost the same
        tableau[m, : d + k] = cost - dual[:-1]
        tableau[m + 1, : d + k] = cost + dual[:-1]
        tableau[m:, d + k :] = math.inf
        tableau[m + 1, width] = dual[-1]
        slots = (2 * d + active).tolist()  # active rows fill the first slots
        var = list(range(d)) + slots + [-1] * (d + 2 - k)
        var += list(range(d, 2 * d)) + [v + m for v in slots] + [-1] * (d + 1 - k)
        free = list(range(width - 1, d + k - 1, -1))
    prices = tableau.reshape(-1)[m * (width + 1) : (m + 2) * (width + 1) - 1]

    bland = PIVOT_RULE == "bland"
    degenerate_streak = 0
    pivots = 0
    converged = False
    trace = [float(tableau[m + 1, width])]
    while pivots < max_pivots:
        # the variables without a price here are basic residuals (price 0) and
        # their partners (price 2), so none of them could enter
        values = prices.tolist()
        if bland:
            candidates = [q for q, v in enumerate(values) if v < -price_tol]
        else:
            low = min(values)
            candidates = [q for q, v in enumerate(values) if v == low] if low < -price_tol else []
        if not candidates:
            converged = True
            break
        p = min(candidates, key=var.__getitem__)
        col = var[p]
        k = p % (width + 1)
        negative = p > width
        pivot_col = -tableau[:m, k] if negative else tableau[:m, k]

        eligible = (pivot_col > tol).nonzero()[0]
        if len(eligible) == 0:
            raise SimplexError("unbounded direction in a formulation that cannot be unbounded")
        # the rows in the order the edge reaches their breakpoints, ties to the
        # lowest basic index; passing row i's raises the slope by 2 c_i col_i
        breaks = eligible[np.lexsort((basis[eligible], rhs[eligible] / pivot_col[eligible]))]
        rates = 2.0 * c[basis[breaks]]
        rises = (rates * pivot_col[breaks]).cumsum()
        # the first breakpoint past which the slope values[p] + rises is >=
        # -price_tol, or the last one should rounding keep the slope below it
        stop = min(int(rises.searchsorted(-price_tol - values[p])), len(breaks) - 1)
        row = int(breaks[stop])
        if stop:  # each row passed hands its basic variable to the pair partner
            flips = breaks[:stop]
            flipped = tableau[flips]
            shift = rates[:stop] @ flipped
            tableau[m] += shift
            tableau[m + 1] -= shift
            tableau[flips] = -flipped
            basis[flips] = mate[basis[flips]]

        leaving = int(basis[row])
        if leaving >= 2 * d:  # the row turns active: its residual pair takes a free slot
            f = free.pop()
            i = (leaving - 2 * d) % m
            if leaving == 2 * d + i:
                tableau[row, f] = 1.0
                prices[f], prices[f + width + 1] = 0.0, 2.0
            else:
                tableau[row, f] = -1.0
                prices[f], prices[f + width + 1] = 2.0, 0.0
            var[f], var[f + width + 1] = 2 * d + i, 2 * d + m + i

        cv = float(prices[p])  # after the flips: the slope up to the leaving breakpoint
        tableau[row] /= pivot_col[row]
        col_vals = -tableau[:, k] if negative else tableau[:, k].copy()
        col_vals[row] = 0.0
        col_vals[m], col_vals[m + 1] = cv, -cv  # a negative part's column is negated
        # this leaves column k exactly +-e_row and the entering price exactly 0
        tableau -= col_vals[:, None] * tableau[row]
        if col >= 2 * d:  # a basic residual keeps no column
            tableau[:m, k] = 0.0
            tableau[m:, k] = math.inf
            free.append(k)
        basis[row] = col
        pivots += 1
        trace.append(float(tableau[m + 1, width]))

        degenerate_streak = degenerate_streak + 1 if rhs[row] <= tol else 0
        if not bland and degenerate_streak >= n:
            bland = True

    full = np.zeros(n)
    full[basis] = rhs
    return SimplexSolution(full, float(c @ full), pivots, converged, basis, trace)


def solve_lp(spec: ProblemSpec) -> SolveResult:
    """Formulate, solve and map back to coefficients, revalidating the objective.

    The reported wall time includes the formulation.
    """
    t0 = time.perf_counter()
    sol = simplex_minimize(formulate(spec))
    d = spec.d
    beta = sol.x[:d] - sol.x[d : 2 * d]
    objective = evaluate_objective(spec, beta)
    if sol.converged and abs(objective - sol.objective) > 1e-9 * max(1.0, abs(objective)):
        raise SimplexError(
            f"LP optimum {sol.objective!r} does not reproduce the objective {objective!r}"
        )
    return SolveResult(
        beta=Coefficients(beta),
        objective=objective,
        solver_id="lp",
        iterations=sol.pivots,
        objective_evals=1,
        wall_time=time.perf_counter() - t0,
        converged=sol.converged,
    )


def dump_lp(lp: LpStandardForm, path) -> None:
    """Write the standard form as fixed-column text for external cross-checks.

    Layout:
      line 1: 'LADLASSO-LP 1'                  format tag and version
      line 2: 'vars <n> rows <m>'
      line 3: variable names, space separated
      line 4: 'minimize'
      line 5: the n cost coefficients
      line 6: 'subject-to'
      next m lines: n row coefficients, '=', right-hand side
      last line: 'bounds all >= 0'
    Every number occupies a 25-character column formatted %+.17e.
    """
    num = "{:+25.17e}"

    def row(values) -> str:
        return " ".join(num.format(v) for v in values)

    m = lp.m
    lines = [
        "LADLASSO-LP 1",
        f"vars {lp.cost.size} rows {m}",
        " ".join(lp.variable_names),
        "minimize",
        row(lp.cost),
        "subject-to",
    ]
    for i in range(m):
        lines.append(row(lp.constraint_matrix[i]) + " = " + num.format(lp.rhs[i]))
    lines.append("bounds all >= 0")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")

"""Cyclical coordinate descent on the piecewise-linear objective.

Each coordinate update minimises the one-dimensional restriction of the
objective (a weighted sum of absolute deviations) exactly, at a weighted
median of its breakpoints.  A candidate move is applied only when it
strictly lowers the tracked objective, so the value sequence is
non-increasing by construction.

On a non-smooth surface the sweep can halt at a point where every
axis-parallel direction increases even though a diagonal descent direction
still exists; ``is_axiswise_minimum`` certifies exactly that halting
condition from one-sided slopes.  The optional ``frozen_axis`` pins one
coordinate so the descent explores only the orthogonal subspace, which is
what the outer locus search needs.

Near a ridge the sweeps zig-zag, each gaining a steady fraction less than
the one before (Wu & Lange 2008 describe this for l1 regression).  With
``line_steps`` set, a sweep that gains more than half of what the previous
sweep gained is followed by an exact minimisation along that sweep's
displacement, kept only if the freshly evaluated objective is strictly
lower.  The stopping rule is unchanged, so a converged descent still ends on
a full sweep without gain.  Only the locus search's probe descents take line
steps; ``solve_ccd`` (the ``ccd_plain`` solver) and ``sample_locus`` stay
plain cyclical descent.

Every coordinate update is one weighted median of the axis's breakpoints.
Between sweeps the breakpoints move only a little, so each descent keeps,
per free axis, the permutation that sorted them last time: the update
gathers the breakpoints in that order and sorts them again with the same
stable sort, which on nearly sorted input (numpy's timsort) runs in about
linear time.  The first update of an axis starts from the identity, which is
exactly a sort from scratch.  With distinct breakpoints the sorted order is
unique, so the minimiser is the one a sort from scratch finds; among exactly
tied breakpoints only the order in which their weights are summed can
differ, which can move the cumulative weight by its last bit.
"""

from __future__ import annotations

import time
import numpy as np

from .errors import InvalidInputError
from .linesearch import weighted_median_from
from .model import (
    Coefficients,
    ProblemSpec,
    SolveResult,
    _beta_array,
    axis_restriction,
    objective_value,
)


# a descent stops at its first full sweep that lowers the objective by less
# than SWEEP_TOL, or unconverged after MAX_SWEEPS sweeps
SWEEP_TOL = 1e-10
MAX_SWEEPS = 500
# ``is_axiswise_minimum`` takes breakpoints within this much of a coordinate
# (relative to its magnitude) as sitting at it
AXISWISE_TOL = 1e-9


class _AxisWorkspace:
    """Constant structure of one axis: its column, nonzero rows and weights.

    ``identity`` is the read-only starting order of the axis's breakpoints
    (nonzero rows, then the penalty's).  Each descent keeps its own warm
    order per axis, starting from it, so the workspace holds no scratch
    state and one table serves every descent on a problem.
    """

    __slots__ = ("col", "dense", "nz_idx", "col_nz", "zero_idx", "weights", "identity")

    def __init__(self, col: np.ndarray, lam: float):
        self.col = np.ascontiguousarray(col)
        self.nz_idx = np.flatnonzero(col != 0.0)
        self.dense = self.nz_idx.size == col.size
        self.col_nz = self.col if self.dense else col[self.nz_idx]
        self.zero_idx = np.flatnonzero(col == 0.0)
        k = self.nz_idx.size
        self.weights = np.empty(k + 1)
        self.weights[:k] = np.abs(self.col_nz)
        self.weights[k] = lam
        self.identity = np.arange(k + 1)
        self.identity.setflags(write=False)


def _axis_workspaces(spec: ProblemSpec) -> tuple[_AxisWorkspace, ...]:
    """The per-axis constants of ``spec``, built on first use and kept on it.

    A ``ProblemSpec`` and its arrays are immutable, so the table never goes
    stale, and it is read-only, so concurrent descents may share it.
    """
    table = spec.__dict__.get("_ccd_axes")
    if table is None:
        lam = spec.lambda_eff
        table = tuple(_AxisWorkspace(spec.data.x[:, j], lam) for j in range(spec.d))
        spec.__dict__["_ccd_axes"] = table
    return table


def _line_step(x, y, lam, b, residual, v):
    """Exact minimiser of the objective along ``b + s*v``: the point and its value.

    Along the line every row contributes a breakpoint ``r_i/(x_i.v)`` weighted
    ``|x_i.v|`` and every moving coordinate one at ``-b_j/v_j`` weighted
    ``lam*|v_j|``, so the minimising ``s`` is their weighted median.  The value
    is evaluated afresh at the new point, with its residual vector.
    """
    xv = x @ v
    rows = xv != 0.0
    moving = v != 0.0
    locations = np.concatenate((residual[rows] / xv[rows], -b[moving] / v[moving]))
    weights = np.concatenate((np.abs(xv[rows]), lam * np.abs(v[moving])))
    s, _ = weighted_median_from(locations, weights, np.arange(locations.size))
    b_new = b + s * v
    r_new = y - x @ b_new
    return b_new, r_new, float(np.abs(r_new).sum() + lam * np.abs(b_new).sum())


def ccd_descend(
    spec: ProblemSpec,
    start: Coefficients | np.ndarray,
    frozen_axis: int | None = None,
    line_steps: bool = False,
    trace: list | None = None,
) -> SolveResult:
    """Run cyclical coordinate descent from ``start`` (a Coefficients or a plain vector).

    Axes are visited in fixed ascending order, skipping ``frozen_axis`` (if
    set).  ``line_steps`` adds an exact line step along a sweep's displacement
    whenever that sweep gained more than half of what the previous one did.
    ``converged`` is True iff some full sweep improved the objective by less
    than ``SWEEP_TOL``; otherwise ``MAX_SWEEPS`` sweeps ran out and the best
    point so far is returned.
    ``iterations`` counts sweeps, ``objective_evals`` counts weighted
    medians, one per coordinate update and one per line step.
    If ``trace`` is a list, the objective after every coordinate update (moved
    or not) and after every accepted line step is appended.
    """
    t0 = time.perf_counter()
    b = _beta_array(spec, start).copy()
    if frozen_axis is not None and not 0 <= frozen_axis < spec.d:
        raise InvalidInputError(f"frozen_axis {frozen_axis} out of range for d={spec.d}")
    x, y = spec.data.x, spec.data.y
    lam = spec.lambda_eff
    residual = y - x @ b
    f_cur = float(np.abs(residual).sum() + lam * np.abs(b).sum())
    axes = [j for j in range(spec.d) if j != frozen_axis]
    work = _axis_workspaces(spec)
    # scratch breakpoints and warm sort orders, private to this descent;
    # the penalty's breakpoint stays at 0
    locations = [np.zeros(ws.weights.size) for ws in work]
    heads = [locs[:-1] for locs in locations]
    orders = [ws.identity for ws in work]
    evals = 0
    sweeps = 0
    converged = False
    prev_gain = np.inf
    for _ in range(MAX_SWEEPS):
        sweeps += 1
        f_sweep_start = f_cur
        b_sweep_start = b.copy() if line_steps else None
        sum_abs_b = float(np.abs(b).sum())  # refresh: incremental updates may drift
        for j in axes:
            bj = float(b[j])
            ws = work[j]
            locs, head = locations[j], heads[j]
            if ws.dense:
                np.divide(residual, ws.col_nz, out=head)
                head += bj
            else:
                np.divide(residual[ws.nz_idx] + ws.col_nz * bj, ws.col_nz, out=head)
            t_new, orders[j] = weighted_median_from(locs, ws.weights, orders[j])
            evals += 1
            if abs(t_new - bj) <= 1e-14 * (1.0 + abs(bj)):
                # already at this axis' minimiser (up to residual rounding)
                if trace is not None:
                    trace.append(f_cur)
                continue
            constant = lam * (sum_abs_b - abs(bj))
            if ws.zero_idx.size:
                constant += float(np.abs(residual[ws.zero_idx]).sum())
            v_new = constant + float(np.abs(t_new - locs) @ ws.weights)
            if v_new < f_cur:
                residual -= ws.col * (t_new - bj)
                sum_abs_b += abs(t_new) - abs(bj)
                b[j] = t_new
                f_cur = v_new
            if trace is not None:
                trace.append(f_cur)
        gain = f_sweep_start - f_cur
        if gain < SWEEP_TOL:
            converged = True
            break
        if line_steps and gain > 0.5 * prev_gain:
            # the sweep zig-zags: jump to the minimum along its displacement
            b_new, r_new, f_new = _line_step(x, y, lam, b, residual, b - b_sweep_start)
            evals += 1
            if f_new < f_cur:
                b, residual, f_cur = b_new, r_new, f_new
                if trace is not None:
                    trace.append(f_cur)
        prev_gain = gain
    objective = objective_value(x, y, lam, b)
    return SolveResult(
        beta=Coefficients(b),
        objective=objective,
        solver_id="ccd_plain",
        iterations=sweeps,
        objective_evals=evals,
        wall_time=time.perf_counter() - t0,
        converged=converged,
    )


def solve_ccd(spec: ProblemSpec) -> SolveResult:
    """Plain descent from zero; may stall above the optimum."""
    return ccd_descend(spec, Coefficients.zeros(spec.d))


def is_axiswise_minimum(spec: ProblemSpec, beta, skip: int | None = None) -> bool:
    """True iff no axis-parallel move (except along ``skip``) descends.

    The one-sided slopes of each axis restriction are computed exactly from
    the breakpoint weights; ``AXISWISE_TOL`` decides which breakpoints count
    as sitting at the current coordinate, absorbing the rounding noise of
    incrementally maintained residuals.
    """
    b = _beta_array(spec, beta)
    for j in range(spec.d):
        if j == skip:
            continue
        g = axis_restriction(spec, beta, j)
        atol = AXISWISE_TOL * max(1.0, abs(b[j]))
        left, right = g.slopes_at(b[j], atol)
        slope_eps = 1e-12 * (g.total_weight + 1.0)
        if left > slope_eps or right < -slope_eps:
            return False
    return True

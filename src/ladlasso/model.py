"""Problem containers and exact evaluation of the robust-fit objective.

The objective minimised throughout the package is

    f(beta) = sum_i |y_i - x_i . beta| + lambda_eff * sum_j |beta_j|

with ``lambda_eff = max(lambda, lambda_floor)``.  The tiny floor keeps the
penalty strictly positive so a flat minimising segment of the pure
absolute-deviation fit (which happens e.g. with symmetric data) is broken
deterministically.  The objective is convex and piecewise linear; restricted
to a single coordinate it collapses to a weighted sum of absolute deviations,
which ``axis_restriction`` returns in closed form.

No intercept column is added implicitly: append a constant column to ``x``
if a (penalised) intercept is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidInputError
from .linesearch import PiecewiseLinear1D

DEFAULT_LAMBDA_FLOOR = 1e-9

GAP_TOL = 1e-5  # relative gap to the optimum: locus certificates and `check`
VALIDATE_RTOL = 1e-12  # relative: a stored objective against a fresh evaluation

SOLVER_IDS = ("lp", "brute", "locus_ternary", "locus_quadrature", "ccd_plain")


def _frozen_array(values, ndim: int, what: str) -> np.ndarray:
    out = np.array(values, dtype=float)
    if out.ndim != ndim:
        raise InvalidInputError(f"{what} must be {ndim}-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise InvalidInputError(f"{what} must contain only finite values")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix x (m points by d variables) and response vector y."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _frozen_array(self.x, 2, "x")
        y = _frozen_array(self.y, 1, "y")
        m, d = x.shape
        if m < 1 or d < 1:
            raise InvalidInputError(f"need m >= 1 and d >= 1, got {m} x {d}")
        if y.shape[0] != m:
            raise DimensionMismatchError(f"y has {y.shape[0]} entries for {m} data rows")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class Coefficients:
    """A candidate parameter vector."""

    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", _frozen_array(self.beta, 1, "beta"))

    def __len__(self) -> int:
        return self.beta.shape[0]

    @classmethod
    def zeros(cls, d: int) -> "Coefficients":
        return cls(np.zeros(d))


def check_penalty(lam: float, lambda_floor: float = DEFAULT_LAMBDA_FLOOR) -> None:
    """Raise InvalidInputError unless lam >= 0 and lambda_floor > 0, both finite."""
    if not np.isfinite(lam) or lam < 0:
        raise InvalidInputError("lam must be finite and >= 0")
    if not np.isfinite(lambda_floor) or lambda_floor <= 0:
        raise InvalidInputError("lambda_floor must be finite and > 0")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A dataset plus the regularisation weight; fully determines the objective."""

    data: Dataset
    lam: float
    lambda_floor: float = DEFAULT_LAMBDA_FLOOR

    def __post_init__(self):
        check_penalty(self.lam, self.lambda_floor)

    @property
    def lambda_eff(self) -> float:
        return max(self.lam, self.lambda_floor)

    @property
    def m(self) -> int:
        return self.data.m

    @property
    def d(self) -> int:
        return self.data.d


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Solver output: the fitted coefficients plus run diagnostics.

    ``iterations`` and ``objective_evals`` mean slightly different things per
    solver (pivots for the simplex, vertices for brute force, sweeps and line
    searches for coordinate descent, outer rounds and curve points for the
    locus search); each solver documents its own counts.
    """

    beta: Coefficients
    objective: float
    solver_id: str
    iterations: int
    objective_evals: int
    wall_time: float
    converged: bool

    def __post_init__(self):
        if self.solver_id not in SOLVER_IDS:
            raise InvalidInputError(f"unknown solver_id {self.solver_id!r}")


def _beta_array(spec: ProblemSpec, beta) -> np.ndarray:
    b = beta.beta if isinstance(beta, Coefficients) else np.asarray(beta, dtype=float)
    if b.shape != (spec.d,):
        raise DimensionMismatchError(
            f"beta has shape {b.shape}, problem has {spec.d} variables"
        )
    return b


def objective_value(x: np.ndarray, y: np.ndarray, lam_eff: float, b: np.ndarray) -> float:
    """Raw-array objective kernel shared by the solvers' hot loops."""
    r = y - x @ b
    return float(np.abs(r).sum() + lam_eff * np.abs(b).sum())


def objective_values(x: np.ndarray, y: np.ndarray, lam_eff: float, bs: np.ndarray) -> np.ndarray:
    """``objective_value`` at each row of ``bs`` by one (B x m) product, in
    place; it rounds differently, so rank with it and report ``objective_value``."""
    fit = bs @ x.T
    np.abs(np.subtract(y, fit, out=fit), out=fit)
    return fit.sum(axis=1) + lam_eff * np.abs(bs).sum(axis=1)


def evaluate_objective(spec: ProblemSpec, beta) -> float:
    """Exact objective value at ``beta`` (a Coefficients or a plain vector)."""
    b = _beta_array(spec, beta)
    return objective_value(spec.data.x, spec.data.y, spec.lambda_eff, b)


def axis_restriction(spec: ProblemSpec, beta, j: int) -> PiecewiseLinear1D:
    """The objective as a function of coordinate j alone, others held fixed.

    Rows with a nonzero entry in column j contribute a breakpoint at the value
    of t that zeroes their residual, weighted by |x_ij|; the penalty on the
    moving coordinate contributes a breakpoint at 0 with weight lambda_eff.
    Rows with x_ij = 0 and the penalty on the fixed coordinates enter the
    constant term, so the restriction equals the full objective at every t.
    """
    b = _beta_array(spec, beta)
    if not 0 <= j < spec.d:
        raise InvalidInputError(f"axis {j} out of range for d={spec.d}")
    x, y = spec.data.x, spec.data.y
    lam = spec.lambda_eff
    col = x[:, j]
    base = y - x @ b + col * b[j]  # residuals with beta_j set to 0
    nz = col != 0.0
    locations = np.append(base[nz] / col[nz], 0.0)
    weights = np.append(np.abs(col[nz]), lam)
    constant = float(np.abs(base[~nz]).sum() + lam * (np.abs(b).sum() - abs(b[j])))
    return PiecewiseLinear1D(locations, weights, constant)


def validate_result(spec: ProblemSpec, result: SolveResult) -> None:
    """Check that a result's stored objective matches a fresh evaluation."""
    f = evaluate_objective(spec, result.beta)
    if abs(result.objective - f) > VALIDATE_RTOL * max(1.0, abs(f)):
        raise InvalidInputError(
            f"stored objective {result.objective!r} does not reproduce {f!r}"
        )

"""Robust linear regression: absolute-deviation fit plus an L1 coefficient penalty.

Four interchangeable solvers minimise the same convex piecewise-linear
objective:

- ``lp``: simplex on the standard-form recasting, pivoting a narrow
  tableau of width 2d+2 at O(m.d) per pivot, each step passing every
  breakpoint that still lowers the objective;
- ``brute``: exhaustive vertex evaluation, the ground-truth oracle for
  small problems;
- ``locus_ternary`` / ``locus_quadrature``: a two-stage search along the
  locus of axis-wise minima (outer bracket search, inner restricted descent),
  snapped to a vertex and certified by the dual point of that vertex's own
  basis, or of the simplex's final basis where that bound falls short;
- ``ccd_plain``: plain cyclical coordinate descent, which can stall at an
  axis-wise minimum that is not global.

No solver takes a tolerance or cap as an argument: each is a constant of
``linesearch``, ``ccd``, ``lp``, ``brute`` or ``model``, read at call time.

The package also ships a seedable synthetic data generator and a CLI
(``ladlasso``) for solving, cross-checking and benchmarking.
"""

from .brute import solve_brute, solve_linear_system
from .ccd import ccd_descend, is_axiswise_minimum, solve_ccd
from .datagen import GenSpec, generate, read_dataset_csv, write_dataset_csv
from .linesearch import (
    Bracket,
    PiecewiseLinear1D,
    SearchResult,
    expand_bracket,
    quadrature_min,
    ternary_min,
    weighted_median_min,
)
from .locus import LocusPoint, locus_value, sample_locus, solve_locus
from .lp import LpStandardForm, dump_lp, formulate, solve_lp
from .model import (
    Coefficients,
    Dataset,
    ProblemSpec,
    SolveResult,
    axis_restriction,
    evaluate_objective,
    validate_result,
)

__version__ = "0.1.0"

__all__ = [
    "Bracket",
    "Coefficients",
    "Dataset",
    "GenSpec",
    "LocusPoint",
    "LpStandardForm",
    "PiecewiseLinear1D",
    "ProblemSpec",
    "SearchResult",
    "SolveResult",
    "axis_restriction",
    "ccd_descend",
    "dump_lp",
    "evaluate_objective",
    "expand_bracket",
    "formulate",
    "generate",
    "is_axiswise_minimum",
    "locus_value",
    "quadrature_min",
    "read_dataset_csv",
    "sample_locus",
    "solve_brute",
    "solve_ccd",
    "solve_linear_system",
    "solve_locus",
    "solve_lp",
    "ternary_min",
    "validate_result",
    "weighted_median_min",
    "write_dataset_csv",
]

"""Shared helpers for the test suite."""

import numpy as np

from ladlasso.datagen import GenSpec, generate
from ladlasso.lp import solve_lp
from ladlasso.model import Dataset, ProblemSpec


def make_problem(seed, d, m, lam, noise=1.0, outliers=0.2):
    """Seeded random problem in the style of the agreement sweeps."""
    data, _ = generate(
        GenSpec(m=m, d=d, noise_sigma=noise, outlier_fraction=outliers, seed=seed)
    )
    return ProblemSpec(data, lam)


def tiny_problem(x, y, lam, **kw):
    return ProblemSpec(Dataset(np.atleast_2d(x), np.atleast_1d(y)), lam, **kw)


def rel_gap(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-30)


def exact_curve(spec, axis, t):
    """The locus curve's exact value at t: the minimum over the other
    coordinates with coordinate ``axis`` held at t (``solve_lp`` on the
    other columns against y - x_axis * t), plus the penalty lambda |t|."""
    x = np.delete(spec.data.x, axis, axis=1)
    y = spec.data.y - spec.data.x[:, axis] * t
    rest = ProblemSpec(Dataset(x, y), spec.lam, spec.lambda_floor)
    return solve_lp(rest).objective + spec.lambda_eff * abs(t)

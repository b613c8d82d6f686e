"""Reference optima from scipy's HiGHS, independent of the package under test.

Usage: python3 reference.py INSTANCES.npz OPTIMA.json

INSTANCES.npz holds ``x<i>``, ``y<i>`` and the array ``lam_eff``.  Each
instance is solved as the standard-form LP

    min  lam_eff * sum(bp + bn) + sum(rp + rn)
    s.t. x (bp - bn) + rp - rn = y,   all variables >= 0,

built here from the raw arrays, and the optimum written is the objective
sum|y - x beta| + lam_eff * sum|beta| evaluated at the HiGHS solution.  The
benchmark runs this in a child process so that scipy never enters the
memory of the process it measures.
"""

import json
import sys

import numpy as np
import scipy
from scipy.optimize import linprog


def optimum(x: np.ndarray, y: np.ndarray, lam_eff: float) -> float:
    m, d = x.shape
    cost = np.concatenate([np.full(2 * d, lam_eff), np.ones(2 * m)])
    a_eq = np.hstack([x, -x, np.eye(m), -np.eye(m)])
    res = linprog(cost, A_eq=a_eq, b_eq=y, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    beta = res.x[:d] - res.x[d : 2 * d]
    return float(np.abs(y - x @ beta).sum() + lam_eff * np.abs(beta).sum())


def main(in_path: str, out_path: str) -> None:
    with np.load(in_path) as data:
        lam_eff = data["lam_eff"]
        optima = [
            optimum(data[f"x{i}"], data[f"y{i}"], float(lam)) for i, lam in enumerate(lam_eff)
        ]
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump({"optima": optima, "scipy": scipy.__version__}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])

#!/usr/bin/env python3
"""Trace the curve of axis-wise minima on a seeded problem and emit CSV.

For a two-variable problem the restricted descent is exact, so the trace is
the true curve between the plain-descent stall point and the optimum: the
value column should be unimodal and each coefficient column monotone.
Columns: t, value, beta_0..beta_{d-1}, inner_converged.

Usage: python scripts/trace_halting_curve.py [--seed N] [--n 65] [--out trace.csv]
"""

import argparse
import sys

from ladlasso.brute import solve_brute
from ladlasso.ccd import solve_ccd
from ladlasso.datagen import GenSpec, generate
from ladlasso.linesearch import Bracket
from ladlasso.locus import sample_locus, search_axis
from ladlasso.model import ProblemSpec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--m", type=int, default=8)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.1)
    ap.add_argument("--n", type=int, default=65)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args()

    data, _ = generate(
        GenSpec(m=args.m, d=args.d, noise_sigma=1.0, outlier_fraction=0.2, seed=args.seed)
    )
    spec = ProblemSpec(data, args.lam)
    axis = search_axis(spec.data)
    t_star = float(solve_brute(spec).beta.beta[axis])
    t_stall = float(solve_ccd(spec).beta.beta[axis])
    scale = 1.0 + abs(t_star)
    if abs(t_stall - t_star) > 1e-6 * scale:
        window = Bracket(min(t_stall, t_star), max(t_stall, t_star))
    else:
        window = Bracket(t_star - 1e-3 * scale, t_star + 1e-3 * scale)

    points = sample_locus(spec, axis, window, args.n)
    header = ["t", "value"] + [f"beta_{j}" for j in range(spec.d)] + ["inner_converged"]
    lines = [",".join(header)]
    for pt in points:
        cells = [f"{pt.t:.17e}", f"{pt.value:.17e}"]
        cells += [f"{v:.17e}" for v in pt.beta.beta]
        cells.append(str(int(pt.inner_converged)))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {len(points)} points (outer axis {axis}) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

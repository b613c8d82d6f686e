#!/usr/bin/env python3
"""Search for a small instance where plain coordinate descent stalls.

Walks seeded generator specs (m=5, d=2, noisy with outliers) over a grid of
regularisation weights until plain descent from zero halts - verified as an
axis-wise minimum - strictly above the exhaustive-enumeration optimum, while
the two-stage locus search still reaches it.  The first hit is printed in a
form suitable for pinning as a regression fixture.

Usage: python scripts/find_ccd_stall.py [--max-seeds N] [--min-gap G]
"""

import argparse

from ladlasso.ccd import is_axiswise_minimum, solve_ccd
from ladlasso.datagen import GenSpec, generate
from ladlasso.brute import solve_brute
from ladlasso.locus import solve_locus
from ladlasso.model import ProblemSpec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-seeds", type=int, default=2000)
    ap.add_argument("--min-gap", type=float, default=1e-3)
    ap.add_argument("--m", type=int, default=5)
    ap.add_argument("--d", type=int, default=2)
    args = ap.parse_args()

    lambdas = (0.01, 0.1, 0.5, 1.0)
    for seed in range(args.max_seeds):
        g = GenSpec(m=args.m, d=args.d, noise_sigma=3.0, outlier_fraction=0.2, seed=seed)
        data, _ = generate(g)
        for lam in lambdas:
            spec = ProblemSpec(data, lam)
            stalled = solve_ccd(spec)
            if not stalled.converged:
                continue
            reference = solve_brute(spec)
            gap = (stalled.objective - reference.objective) / abs(reference.objective)
            if gap <= args.min_gap:
                continue
            if not is_axiswise_minimum(spec, stalled.beta):
                continue
            locus = solve_locus(spec)
            locus_gap = abs(locus.objective - reference.objective) / abs(reference.objective)
            print(f"found: seed={seed} lambda={lam}")
            print(f"  genspec: {g}")
            print(f"  plain descent objective: {stalled.objective!r}")
            print(f"  optimum:                 {reference.objective!r}")
            print(f"  relative gap:            {gap:.6e}")
            print(f"  locus search gap:        {locus_gap:.6e}")
            return 0
    print("no stalling instance found; widen the search")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Print the work the locus solvers do on a seeded grid: counts that host load cannot move.

Per solver, over every instance of the grid:

- ``descents``: coordinate descents (``ccd_descend`` calls), probes and
  halting descents alike;
- ``m_x_median_calls``: the sum over descents of m times the descent's
  weighted-median calls, the median kernel's work;
- ``outer_rounds``: rounds of the bracket search;
- ``certified_before_search``: solves certified before any round;
- ``certificate_simplex_runs``: solves whose certificate ran the simplex,
  which it does only where the snapped vertex's own basis falls short;
- ``certificate_pivots``: the pivots of those runs.

The counts are the same on any host for the same code and grid, so they stand
next to a timing whose spread turns on host load.  Instances come from the
grids of ``solve_digest.py``: the oracle sweep by default, or ``--pool
WORKLOAD:SEED``, the instance pool ``perfbench/run.py`` draws.

Usage, from the repository root:

    python scripts/work_counts.py --pool tall_noisy:7 --solvers locus_ternary
"""

import argparse
import sys

from solve_digest import ROOT, pool_instances

sys.path.insert(0, str(ROOT / "src"))

from ladlasso import cli, locus  # noqa: E402
from ladlasso.datagen import generate  # noqa: E402
from ladlasso.fixtures import oracle_grid  # noqa: E402
from ladlasso.model import ProblemSpec  # noqa: E402

COLUMNS = (
    "solves",
    "descents",
    "m_x_median_calls",
    "outer_rounds",
    "certified_before_search",
    "certificate_simplex_runs",
    "certificate_pivots",
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--solvers", default="locus_ternary,locus_quadrature")
    ap.add_argument("--pool", metavar="WORKLOAD:SEED")
    args = ap.parse_args()

    solvers = [s for s in args.solvers.split(",") if s]
    for solver in solvers:
        if not solver.startswith("locus_"):
            ap.error(f"{solver}: only the locus solvers search a curve")
    if args.pool:
        name, seed = args.pool.split(":")
        instances = list(pool_instances(name, int(seed)))
    else:
        instances = list(oracle_grid(200))

    real, real_simplex = locus.ccd_descend, locus.simplex_minimize
    counts = {s: dict.fromkeys(COLUMNS, 0) for s in solvers}
    current = None

    def counted(spec, *a, **kw):
        res = real(spec, *a, **kw)
        current["descents"] += 1
        current["m_x_median_calls"] += spec.m * res.objective_evals
        return res

    def counted_simplex(*a, **kw):
        sol = real_simplex(*a, **kw)
        current["certificate_simplex_runs"] += 1
        current["certificate_pivots"] += sol.pivots
        return sol

    locus.ccd_descend, locus.simplex_minimize = counted, counted_simplex
    try:
        for gen, lam in instances:
            data, _ = generate(gen)
            spec = ProblemSpec(data, lam)
            for solver in solvers:
                current = counts[solver]
                res = cli.run_solver(solver, spec)
                current["solves"] += 1
                current["outer_rounds"] += res.iterations
                current["certified_before_search"] += res.converged and res.iterations == 0
    finally:
        locus.ccd_descend, locus.simplex_minimize = real, real_simplex

    print("  ".join(("solver".ljust(16),) + COLUMNS))
    for solver, row in counts.items():
        print("  ".join([solver.ljust(16)] + [str(row[c]).rjust(len(c)) for c in COLUMNS]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

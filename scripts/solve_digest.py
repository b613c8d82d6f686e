#!/usr/bin/env python3
"""Print one SHA-1 over every result of the named solvers on a seeded grid.

The digest covers each result's ``beta.tobytes()``, objective, iterations and
objective_evals, in instance order, so two checkouts print the same line
exactly when every solve took the same steps to the same bits.  Run it on a
parent checkout and on a change to show that a speed-only change leaves
results bit-identical.

Instances come from one of two grids:

- by default, the 200-instance brute-force oracle sweep of the acceptance
  tests (``ladlasso.fixtures.oracle_grid``);
- ``--pool WORKLOAD:SEED``: the instance pool ``perfbench/run.py`` draws for
  that workload and seed, as many rounds as a 48 s run solves.

Solvers run through ``cli.run_solver``.

Usage, from the repository root:

    python scripts/solve_digest.py --solvers locus_ternary,locus_quadrature,ccd_plain
    python scripts/solve_digest.py --pool tall_noisy:7 --solvers locus_ternary
"""

import argparse
import hashlib
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ladlasso import cli  # noqa: E402
from ladlasso.datagen import GenSpec, generate  # noqa: E402
from ladlasso.fixtures import oracle_grid  # noqa: E402
from ladlasso.model import ProblemSpec  # noqa: E402


def pool_instances(name: str, seed: int):
    """(GenSpec, lambda) of a benchmark workload's instance pool."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, instance_pool

    wl = WORKLOADS[name]
    for inst in instance_pool(wl, seed, wl.rounds(48)):
        gen = GenSpec(
            m=inst.m,
            d=inst.d,
            noise_sigma=wl.noise_sigma,
            outlier_fraction=wl.outlier_fraction,
            seed=inst.data_seed,
        )
        yield gen, inst.lam


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--solvers", default="locus_ternary,locus_quadrature,ccd_plain")
    ap.add_argument("--pool", metavar="WORKLOAD:SEED")
    args = ap.parse_args()

    if args.pool:
        name, seed = args.pool.split(":")
        instances = pool_instances(name, int(seed))
    else:
        instances = oracle_grid(200)
    solvers = [s for s in args.solvers.split(",") if s]

    digest = hashlib.sha1()
    count = 0
    for gen, lam in instances:
        data, _ = generate(gen)
        spec = ProblemSpec(data, lam)
        for solver in solvers:
            res = cli.run_solver(solver, spec)
            digest.update(res.beta.beta.tobytes())
            digest.update(struct.pack("<dqq", res.objective, res.iterations, res.objective_evals))
            count += 1
    print(f"{digest.hexdigest()}  {count} results  solvers={','.join(solvers)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

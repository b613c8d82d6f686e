"""Pinned regression fixtures.

``CCD_STALL_GEN``/``CCD_STALL_LAMBDA`` define a small problem on which plain
cyclical coordinate descent from zero halts at a verified axis-wise minimum
whose objective sits well above the global optimum, while the two-stage locus
search still reaches the optimum.  It was found by the seeded random search
in ``scripts/find_ccd_stall.py`` (first hit: generator seed 0 at the weakest
penalty in the grid) and is kept fixed so the stalling behaviour stays under
test.

``oracle_grid`` is the seeded instance grid on which the acceptance tests
compare every solver with brute-force enumeration; ``scripts/solve_digest.py``
hashes solver results over the same grid.
"""

import itertools

from .datagen import GenSpec, generate
from .model import ProblemSpec

CCD_STALL_GEN = GenSpec(m=5, d=2, noise_sigma=3.0, outlier_fraction=0.2, seed=0)
CCD_STALL_LAMBDA = 0.01

# Values recorded when the fixture was pinned; tests recompute both sides.
CCD_STALL_OBJECTIVE = 41.69174235002273
CCD_STALL_OPTIMUM = 41.437510830005365


def ccd_stall_problem() -> ProblemSpec:
    data, _ = generate(CCD_STALL_GEN)
    return ProblemSpec(data, CCD_STALL_LAMBDA)


def oracle_grid(n: int = 200):
    """The first ``n`` instances of the oracle sweep, as (GenSpec, lambda).

    Cycles over d in 1..3, m in 4..12 and lambda in {0.01, 0.1, 1}; instance
    ``i`` is noisy (sigma 1, a fifth of the rows outliers) with generator seed
    9000+i.
    """
    grid = list(itertools.product((1, 2, 3), range(4, 13), (0.01, 0.1, 1.0)))
    for i in range(n):
        d, m, lam = grid[i % len(grid)]
        yield GenSpec(m=m, d=d, noise_sigma=1.0, outlier_fraction=0.2, seed=9000 + i), lam

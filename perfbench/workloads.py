"""Workload definitions and seeded instance pools.

Each workload is a fixed grid of (d, m, lambda) cells plus the solvers it
runs; ``BENCHMARK.json`` records why each workload exists.  The ``--seed``
only changes the data drawn for each cell, so a new seed gives a different
instance set of the same shape.  A run solves whole rounds of fresh
instances, one per cell; the number of rounds is fixed by ``--seconds`` and
the round's nominal cost, so every run of a workload, on any commit, times
the same mix of sizes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[tuple[int, int, float], ...]  # (d, m, lambda)
    solvers: tuple[str, ...]
    noise_sigma: float
    outlier_fraction: float
    round_s: float  # nominal seconds per timed round, measured on a 2-core x86 box
    via_csv: bool = False  # read each instance back from CSV, as ``solve`` does

    def rounds(self, seconds: float) -> int:
        """Whole rounds that take about ``seconds`` at the nominal cost; at least one."""
        return max(1, math.floor(seconds / self.round_s + 0.5))


@dataclass(frozen=True)
class Instance:
    index: int
    d: int
    m: int
    lam: float
    data_seed: int  # the GenSpec seed that reproduces this instance


NOISY = dict(noise_sigma=1.0, outlier_fraction=0.2)
# the ``bench`` subcommand's defaults: noiseless, no outliers
NOISELESS = dict(noise_sigma=0.0, outlier_fraction=0.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oracle_small",
            cells=tuple(
                (d, m, lam) for m in (4, 8, 12) for lam in (0.01, 0.1, 1.0) for d in (1, 2, 3)
            ),
            solvers=("brute", "lp", "locus_ternary", "locus_quadrature"),
            round_s=13.0,
            **NOISY,
        ),
        # Not in BENCHMARK.json: with two workloads each run can be long enough
        # to be steady within the total time the benchmark is allowed, and
        # oracle_small still runs brute force on every instance.
        Workload(
            name="brute_grid",
            cells=tuple((d, m, 0.1) for m in (8, 10, 12, 14, 16) for d in (4, 5)),
            solvers=("brute", "lp"),
            round_s=7.5,
            **NOISELESS,
        ),
        # Not in BENCHMARK.json: one round holds only 15 instances, so its
        # latencies spread too widely across seeds for a regression bound.  Its
        # nonzero miss_share and false_converged_share are the known locus
        # defect at d >= 4, not a benchmark fault; run it with --trace 1.
        Workload(
            name="wide_noisy",
            cells=tuple((d, m, 0.1) for m in (24, 32, 40) for d in (4, 5, 6, 7, 8)),
            solvers=("lp", "locus_ternary", "locus_quadrature"),
            round_s=33.0,
            **NOISY,
        ),
        Workload(
            name="tall_noisy",
            cells=tuple((5, m, 0.1) for m in (400, 800, 200, 600, 300)),
            solvers=("lp", "locus_ternary"),
            round_s=7.8,
            via_csv=True,
            **NOISY,
        ),
    )
}


def instance_pool(workload: Workload, seed: int, rounds: int) -> list[Instance]:
    """``rounds`` instances per cell, round after round; data seeds come from ``seed`` alone."""
    rng = random.Random(f"{workload.name}/{seed}")
    return [
        Instance(i, d, m, lam, rng.randrange(1, 2**63))
        for i, (d, m, lam) in enumerate(workload.cells * rounds)
    ]

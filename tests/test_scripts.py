"""Smoke tests: each script in ``scripts/`` runs against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

from ladlasso.fixtures import CCD_STALL_OBJECTIVE

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_trace_halting_curve():
    lines = run_script("trace_halting_curve.py", "--n", "5").splitlines()
    assert lines[0] == "t,value,beta_0,beta_1,inner_converged"
    assert len(lines) == 6
    assert all(line.split(",")[-1] == "1" for line in lines[1:])


def test_find_ccd_stall_finds_the_pinned_fixture():
    out = run_script("find_ccd_stall.py")
    assert "seed=0 lambda=0.01" in out
    assert repr(CCD_STALL_OBJECTIVE) in out


def test_solve_digest():
    out = run_script("solve_digest.py", "--solvers", "lp")
    assert re.fullmatch(r"[0-9a-f]{40}  200 results  solvers=lp\n", out)


def test_work_counts():
    args = ("--pool", "oracle_small:7", "--solvers", "locus_ternary")
    out = run_script("work_counts.py", *args)
    header, row = out.splitlines()
    assert header.split() == [
        "solver", "solves", "descents", "m_x_median_calls", "outer_rounds",
        "certified_before_search", "certificate_simplex_runs", "certificate_pivots",
    ]
    name, solves, descents, work, rounds, before, runs, pivots = row.split()
    assert name == "locus_ternary"
    assert int(descents) >= int(solves) >= int(before) > 0
    assert int(work) > int(descents) and int(rounds) >= 0
    # the certificate's simplex runs at most once per solve
    assert int(solves) >= int(runs) >= 0 and int(pivots) >= 0
    # counts, not timings: a second run prints the same
    assert run_script("work_counts.py", *args) == out

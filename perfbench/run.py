#!/usr/bin/env python3
"""Solver benchmark: closed-loop workloads driven through ``cli.run_solver``.

Usage, from the repository root:

    python3 perfbench/run.py --workload oracle_small --seed 1 --seconds 48 --trace 0

Set-up draws the workload's instances from ``--seed``, writes the CSVs that
``tall_noisy`` reads back, and computes every instance's optimum with scipy's
HiGHS in a child process, so that scipy never enters the memory of the
measured process.  Set-up runs three times and ``setup_s`` is the median.

``--trace 0`` warms up on the first instance, then times the solves one at a
time over as many rounds of fresh instances (one per cell) as take about
``--seconds`` at the round's nominal cost, and prints the end-to-end metrics.
A solve shorter than ``MIN_SAMPLE_S`` is repeated back to back and timed as
its median call.
``--trace 1`` solves the first round of instances (one per cell) traced,
each between two untraced solves of the same instance, prints each layer's
share of solve time and the per-layer metrics, and writes the spans under
``.perfbench_work/``.

Every solve is checked against its reference.  A solve fails (a miss) if it
raises, if ``validate_result`` rejects it, or if its objective is more than
``CHECK_GAP_TOL`` relative above the optimum; a ``converged=False`` flag alone
is not a failure.  ``correct`` is false if brute force evaluates other than
choose(m+d, d) vertices, if any result beats the reference by more than the
tolerance, or if an exact solver (``lp``, ``brute``) misses.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# one BLAS thread, set before numpy loads; the reference child inherits it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# a solve shorter than this is repeated back to back and timed as its median
# call, so that a short solve's time does not hinge on one preemption or one
# cold cache
MIN_SAMPLE_S = 0.02
EXACT_SOLVERS = ("lp", "brute")

if not (ROOT / "src" / "ladlasso" / "__init__.py").is_file():
    sys.exit(f"error: no package source at {ROOT / 'src' / 'ladlasso'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ladlasso import brute, cli, datagen, locus, lp  # noqa: E402
from ladlasso.errors import InvalidInputError  # noqa: E402
from ladlasso.model import ProblemSpec, validate_result  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Instance, Workload, instance_pool  # noqa: E402

# (module, public attribute, span name); the solvers look each up at call time
WRAPPED = (
    (locus, "locus_value", "locus.locus_value"),
    (locus, "ccd_descend", "locus.ccd_descend"),
    (locus, "expand_bracket", "locus.expand_bracket"),
    (locus, "ternary_min", "locus.ternary_min"),
    (locus, "quadrature_min", "locus.quadrature_min"),
    (lp, "formulate", "lp.formulate"),
    (lp, "simplex_minimize", "lp.simplex_minimize"),
    (brute, "solve_linear_system", "brute.solve_linear_system"),
    (brute, "objective_value", "brute.objective_value"),
)


@dataclass
class Setup:
    pool: list[Instance]
    specs: list[ProblemSpec]
    csv_paths: list[Path]
    optima: list[float]
    scipy_version: str
    generate_s: float


@dataclass
class Outcome:
    instance: Instance
    solver: str
    seconds: float
    gap: float | None  # relative to the reference; None when the solve failed outright
    converged: bool
    missed: bool
    error: str | None
    broken: str | None  # a failed benchmark assertion
    # the result's iterations and objective_evals: work fixed by the data, not the machine
    iterations: int = 0
    evals: int = 0


def set_up(wl: Workload, seed: int, workdir: Path, rounds: int) -> Setup:
    """Generate the instances, write their CSVs and compute the reference optima."""
    pool = instance_pool(wl, seed, rounds)
    specs, csv_paths, arrays = [], [], {}
    generate_s = 0.0
    for inst in pool:
        spec_gen = datagen.GenSpec(
            m=inst.m, d=inst.d, noise_sigma=wl.noise_sigma,
            outlier_fraction=wl.outlier_fraction, seed=inst.data_seed,
        )
        t0 = perf_counter()
        data, _ = datagen.generate(spec_gen)
        generate_s += perf_counter() - t0
        specs.append(ProblemSpec(data, inst.lam))
        arrays[f"x{inst.index}"] = data.x
        arrays[f"y{inst.index}"] = data.y
        if wl.via_csv:
            path = workdir / f"instance{inst.index}.csv"
            datagen.write_dataset_csv(data, path)
            csv_paths.append(path)
    instances = workdir / "instances.npz"
    optima = workdir / "optima.json"
    np.savez(instances, lam_eff=np.array([s.lambda_eff for s in specs]), **arrays)
    subprocess.run(
        [sys.executable, str(HERE / "reference.py"), str(instances), str(optima)],
        check=True, timeout=150,
    )
    ref = json.loads(optima.read_text(encoding="ascii"))
    return Setup(pool, specs, csv_paths, ref["optima"], ref["scipy"], generate_s)


def check(inst: Instance, solver: str, spec, result, error, optimum: float, seconds: float):
    if error is None:
        try:
            validate_result(spec, result)
        except InvalidInputError as exc:
            error = f"validate_result: {exc}"
    if error is not None:
        return Outcome(inst, solver, seconds, None, False, True, error, None)
    gap = (result.objective - optimum) / max(abs(optimum), 1e-30)
    missed = gap > cli.CHECK_GAP_TOL
    broken = None
    if solver == "brute" and result.iterations != math.comb(inst.m + inst.d, inst.d):
        broken = f"brute evaluated {result.iterations} vertices, not choose(m+d, d)"
    elif gap < -cli.CHECK_GAP_TOL:
        broken = f"objective {gap:.3e} relative below the HiGHS reference"
    elif missed and solver in EXACT_SOLVERS:
        broken = f"exact solver {solver} missed the optimum by {gap:.3e}"
    return Outcome(
        inst, solver, seconds, gap, bool(result.converged), missed, None, broken,
        result.iterations, result.objective_evals,
    )


def solve_instance(wl, setup, inst, solvers, read_csv, args, tracer=None, min_sample_s=0.0):
    """Run the workload's solvers on one instance; returns (seconds spent, outcomes).

    Each solver is called back to back until its calls add up to ``min_sample_s``
    (at least once); its time is the median call, and every call is checked.
    The seconds spent are the CSV read plus one such call per solver.
    """
    spent = 0.0
    if wl.via_csv:
        t0 = perf_counter()
        data = read_csv(setup.csv_paths[inst.index])
        spent += perf_counter() - t0
        spec = ProblemSpec(data, inst.lam)
    else:
        spec = setup.specs[inst.index]
    outcomes = []
    for solver in wl.solvers:
        if tracer is not None:
            tracer.solve_id += 1
        call_s, results = [], []
        while not call_s or sum(call_s) < min_sample_s:
            t0 = perf_counter()
            try:
                result, error = solvers[solver](solver, spec, args), None
            except Exception as exc:  # noqa: BLE001 - a crash is a failed solve, the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            call_s.append(perf_counter() - t0)
            results.append((result, error))
            if error is not None:
                break
        per_call = statistics.median(call_s)
        spent += per_call
        checked = [
            check(inst, solver, spec, result, error, setup.optima[inst.index], per_call)
            for result, error in results
        ]
        outcomes.append(next((o for o in checked if o.missed or o.broken), checked[0]))
    return spent, outcomes


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, never below the median."""
    n = len(values)
    if n < 21:
        return 50.0, statistics.median(values)
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def quality(outcomes: list[Outcome]) -> dict[str, float]:
    n = len(outcomes)
    return {
        "miss_share": sum(o.missed for o in outcomes) / n,
        "false_converged_share": sum(o.missed and o.converged for o in outcomes) / n,
        "worst_rel_gap": max([0.0] + [o.gap for o in outcomes if o.gap is not None]),
    }


def blas_threads() -> str:
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return str(get())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_env(setup: Setup) -> None:
    print(
        f"env: python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"scipy {setup.scipy_version}, nproc {os.cpu_count()} "
        f"(usable {len(os.sched_getaffinity(0))}), blas_threads {blas_threads()}, "
        f"commit {commit()}"
    )
    print("command: " + " ".join([Path(sys.executable).name] + sys.argv))


def print_failures(outcomes: list[Outcome]) -> None:
    """Every failed solve and broken assertion, with the seed that reproduces its instance."""
    for o in outcomes:
        if o.missed or o.broken:
            inst = o.instance
            what = o.error or f"gap {o.gap:.3e} converged={o.converged}"
            note = f" BROKEN: {o.broken}" if o.broken else ""
            print(
                f"failed: {o.solver} d={inst.d} m={inst.m} lambda={inst.lam} "
                f"gen_seed={inst.data_seed}: {what}{note}"
            )


def run_untraced(wl, seed, seconds, args, workdir) -> dict:
    setup_times, setup = [], None
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        setup = set_up(wl, seed, workdir, wl.rounds(seconds))
        setup_times.append(perf_counter() - t0)
    print_env(setup)
    solvers = {s: cli.run_solver for s in wl.solvers}
    # warm-up: first calls pay for lazy imports and cold caches, which users of
    # ``check`` and ``bench`` pay once per process, not once per solve
    solve_instance(wl, setup, setup.pool[0], solvers, datagen.read_dataset_csv, args)
    instance_s, outcomes = [], []
    started = perf_counter()
    for inst in setup.pool:
        spent, got = solve_instance(
            wl, setup, inst, solvers, datagen.read_dataset_csv, args, min_sample_s=MIN_SAMPLE_S
        )
        instance_s.append(spent)
        outcomes += got
    wall = perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(
        f"timed phase: {wall:.2f} s closed loop, one solve at a time: "
        f"{len(instance_s) // len(wl.cells)} rounds of {len(wl.cells)} instances, "
        f"{len(outcomes)} solves, each timed over at least {1e3 * MIN_SAMPLE_S:g} ms of calls"
    )
    lp_ms = [1e3 * o.seconds for o in outcomes if o.solver == "lp"]
    inst_ms = [1e3 * s for s in instance_s]
    lp_q, lp_tail = tail(lp_ms)
    inst_q, inst_tail = tail(inst_ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solves_per_s": (len(outcomes) / sum(instance_s), "1/s"),
        "lp.p50_ms": (statistics.median(lp_ms), "ms"),
        "lp.tail_ms": (lp_tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS}",
        "solves_per_s": "per second of instance time (CSV read and one call per solver)",
        "lp.tail_ms": f"p{lp_q:.1f}, n={len(lp_ms)}",
        "lp.p50_ms": f"n={len(lp_ms)}",
    }
    for name, (value, unit) in metrics.items():
        print(f"metric {name:<18} {value:14.6g} {unit:<4} {notes.get(name, '')}")
    # reported, not bounded: on tall_noisy the locus effort per instance is so
    # uneven that the median instance of one run moves 15-20% with the seed
    print(f"report instance.p50_ms  {statistics.median(inst_ms):14.6g} ms   n={len(inst_ms)}")
    print(f"report instance.tail_ms {inst_tail:14.6g} ms   p{inst_q:.1f}, n={len(inst_ms)}")
    for solver in cli.BENCH_SOLVERS:
        got = [o for o in outcomes if o.solver == solver]
        if not got:
            print(f"solver {solver:<17} not run on this workload")
            continue
        ms = [1e3 * o.seconds for o in got]
        q, t = tail(ms)
        qual = quality(got)
        print(
            f"solver {solver:<17} p50_ms {statistics.median(ms):.6g}  tail_ms {t:.6g} "
            f"(p{q:.1f}, n={len(ms)})  total_s {sum(ms) / 1e3:.4g}  "
            f"iterations {sum(o.iterations for o in got)}  "
            f"objective_evals {sum(o.evals for o in got)}  miss_share {qual['miss_share']:.4g}  "
            f"false_converged_share {qual['false_converged_share']:.4g}  "
            f"worst_rel_gap {qual['worst_rel_gap']:.3e}"
        )
    qual = quality(outcomes)
    print("quality: " + "  ".join(f"{k} {v:.6g}" for k, v in qual.items()))
    print_failures(outcomes)
    return {
        "correct": not any(o.broken for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.missed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_traced(wl, seed, args, workdir) -> dict:
    setup = set_up(wl, seed, workdir, rounds=1)
    print_env(setup)
    plain = {s: cli.run_solver for s in wl.solvers}
    tracer = Tracer()
    c: dict[str, int] = defaultdict(int)  # counts summed from results at the span boundaries

    def on_descent(r):
        c["ccd.sweeps"] += r.iterations
        c["ccd.median_calls"] += r.objective_evals
        c["ccd.unconverged"] += not r.converged

    def on_simplex(sol):
        c["lp.pivots"] += sol.pivots

    def on_subset(sol):
        c["brute.singular"] += sol is None

    def on_solve(r):
        if r.solver_id.startswith("locus"):
            c["locus.solves"] += 1
            c["locus.outer_rounds"] += r.iterations
            c["locus.curve_evals"] += r.objective_evals
            c["locus.unconverged"] += not r.converged
        elif r.solver_id == "lp":
            c["lp.unconverged"] += not r.converged

    observers = {
        "locus.ccd_descend": on_descent,
        "lp.simplex_minimize": on_simplex,
        "brute.solve_linear_system": on_subset,
    }
    solvers = {
        s: tracer.traced(cli.run_solver, f"cli.run_solver.{s}", on_solve) for s in wl.solvers
    }

    def read_csv(path):
        c["datagen.read_bytes"] += os.path.getsize(path)
        return datagen.read_dataset_csv(path)

    traced_read = tracer.traced(read_csv, "datagen.read_dataset_csv")
    def untraced(inst):
        return solve_instance(wl, setup, inst, plain, datagen.read_dataset_csv, args)[0]

    # each traced solve sits between two untraced ones of the same instance, so
    # that warm caches and drift in the machine's speed cancel in the overhead
    untraced_s, traced_s, outcomes = [], [], []
    for inst in setup.pool:
        before = untraced(inst)
        for module, attr, name in WRAPPED:
            tracer.wrap(module, attr, name, observers.get(name))
        try:
            spent, got = solve_instance(wl, setup, inst, solvers, traced_read, args, tracer)
        finally:
            tracer.restore()
        traced_s.append(spent)
        outcomes += got
        untraced_s.append(0.5 * (before + untraced(inst)))

    totals = tracer.totals()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name, field):
        if name not in totals and name in {n for _, _, n in WRAPPED}:
            raise KeyError(name)  # the wrapped attribute no longer exists
        return totals.get(name, zero)[field]

    def count(key, name):
        span(name, "calls")  # absent along with the function whose results it sums
        return c[key]

    def per(a, b):
        return a / b if b else 0.0

    definitions = {
        "ccd.descents": ("count", lambda: span("locus.ccd_descend", "calls")),
        "ccd.sweeps": ("count", lambda: count("ccd.sweeps", "locus.ccd_descend")),
        "ccd.median_calls": ("count", lambda: count("ccd.median_calls", "locus.ccd_descend")),
        "ccd.busy_s": ("s", lambda: span("locus.ccd_descend", "total_s")),
        "ccd.us_per_median": (
            "us",
            lambda: 1e6 * per(
                span("locus.ccd_descend", "total_s"), count("ccd.median_calls", "locus.ccd_descend")
            ),
        ),
        "ccd.unconverged": ("count", lambda: count("ccd.unconverged", "locus.ccd_descend")),
        "ccd.descents_per_curve_eval": (
            "ratio", lambda: per(span("locus.ccd_descend", "calls"), c["locus.curve_evals"])
        ),
        "locus.solves": ("count", lambda: c["locus.solves"]),
        "locus.outer_rounds": ("count", lambda: c["locus.outer_rounds"]),
        "locus.curve_evals": ("count", lambda: c["locus.curve_evals"]),
        "locus.probes": ("count", lambda: span("locus.locus_value", "calls")),
        "locus.probe_self_s": ("s", lambda: span("locus.locus_value", "self_s")),
        "locus.self_s": (
            "s",
            lambda: span("cli.run_solver.locus_ternary", "self_s")
            + span("cli.run_solver.locus_quadrature", "self_s"),
        ),
        "locus.unconverged": ("count", lambda: c["locus.unconverged"]),
        "linesearch.searches": (
            "count",
            lambda: span("locus.ternary_min", "calls") + span("locus.quadrature_min", "calls"),
        ),
        "linesearch.expansions": ("count", lambda: span("locus.expand_bracket", "calls")),
        "linesearch.self_s": (
            "s",
            lambda: span("locus.expand_bracket", "self_s")
            + span("locus.ternary_min", "self_s")
            + span("locus.quadrature_min", "self_s"),
        ),
        "brute.subset_solves": ("count", lambda: span("brute.solve_linear_system", "calls")),
        "brute.singular": (
            "count", lambda: count("brute.singular", "brute.solve_linear_system")
        ),
        "brute.subset_solve_s": ("s", lambda: span("brute.solve_linear_system", "total_s")),
        "brute.us_per_subset": (
            "us",
            lambda: 1e6 * per(
                span("brute.solve_linear_system", "total_s"),
                span("brute.solve_linear_system", "calls"),
            ),
        ),
        "brute.objective_evals": ("count", lambda: span("brute.objective_value", "calls")),
        "brute.objective_s": ("s", lambda: span("brute.objective_value", "total_s")),
        "brute.self_s": ("s", lambda: span("cli.run_solver.brute", "self_s")),
        "lp.formulate_s": ("s", lambda: span("lp.formulate", "total_s")),
        "lp.pivots": ("count", lambda: count("lp.pivots", "lp.simplex_minimize")),
        "lp.simplex_s": ("s", lambda: span("lp.simplex_minimize", "total_s")),
        "lp.us_per_pivot": (
            "us",
            lambda: 1e6 * per(
                span("lp.simplex_minimize", "total_s"), count("lp.pivots", "lp.simplex_minimize")
            ),
        ),
        "lp.unconverged": ("count", lambda: c["lp.unconverged"]),
        "datagen.read_s": ("s", lambda: span("datagen.read_dataset_csv", "total_s")),
        "datagen.read_bytes": ("bytes", lambda: c["datagen.read_bytes"]),
        "datagen.generate_s": ("s", lambda: setup.generate_s),
        "trace.overhead_share": (
            "ratio", lambda: (sum(traced_s) - sum(untraced_s)) / sum(untraced_s)
        ),
    }
    metrics, absent = {}, []
    for name, (unit, value) in definitions.items():
        try:
            metrics[name] = {"value": value(), "unit": unit}
        except KeyError:
            absent.append(name)
    for name, value in quality(outcomes).items():
        metrics[name] = {"value": value, "unit": "ratio"}

    solve_s = sum(
        totals.get(n, zero)["total_s"]
        for n in tracer.names
        if n.startswith("cli.run_solver.") or n == "datagen.read_dataset_csv"
    )
    layers = {
        "locus": ["cli.run_solver.locus_ternary", "cli.run_solver.locus_quadrature",
                  "locus.locus_value"],
        "linesearch": ["locus.expand_bracket", "locus.ternary_min", "locus.quadrature_min"],
        "ccd": ["locus.ccd_descend"],
        "lp": ["cli.run_solver.lp", "lp.formulate", "lp.simplex_minimize"],
        "brute": ["cli.run_solver.brute", "brute.solve_linear_system", "brute.objective_value"],
        "datagen": ["datagen.read_dataset_csv"],
    }
    print(
        f"traced pass: {len(setup.pool)} instances, {len(outcomes)} solves, "
        f"{len(tracer.spans)} spans; solve time {solve_s:.3f} s traced, "
        f"{sum(untraced_s):.3f} s untraced"
    )
    for layer, names in layers.items():
        self_s = sum(totals.get(n, zero)["self_s"] for n in names)
        print(f"layer-share {layer:<10} {per(self_s, solve_s):8.4f}  self {self_s:.4f} s")
    for name in tracer.missing:
        print(f"absent: {name} no longer exists; not traced")
    for name in absent:
        print(f"absent metric: {name}")
    for name, m in metrics.items():
        print(f"metric {name:<28} {m['value']:14.6g} {m['unit']}")
    print_failures(outcomes)
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_path = WORK / "traces" / f"{wl.name}-seed{seed}.json.gz"
    tracer.write(trace_path)
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return {
        "correct": not any(o.broken for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.missed for o in outcomes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    wl = WORKLOADS[opts.workload]
    # the solver tuning that ``check``, ``bench`` and ``solve`` use by default
    args = cli.build_parser().parse_args(["bench"])
    print(f"perfbench workload={wl.name} seed={opts.seed} seconds={opts.seconds} "
          f"trace={opts.trace}")
    workdir = WORK / f"{wl.name}-{opts.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if opts.trace:
            result = run_traced(wl, opts.seed, args, workdir)
        else:
            result = run_untraced(wl, opts.seed, opts.seconds, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

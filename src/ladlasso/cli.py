"""Command-line front end: solve, cross-check, benchmark, generate.

Subcommands
-----------
solve   fit one dataset CSV with a chosen solver; exit 0 on convergence,
        2 when not converged (locus: not certified), 1 on input errors.
check   run all four solvers over a seeded grid of generated instances and
        report each solver's worst relative objective gap against the
        brute-force optimum; exit 0 iff every gap is below 1e-5, 3 if any
        solver crashed (the offending seed is printed for reproduction).
bench   time the solvers over a (d, m) grid and write per-run and per-cell
        median CSVs suitable for plotting elsewhere.
gen     write a synthetic dataset CSV plus a metadata sidecar.

A bad flag value (an unknown ``bench`` solver, a negative lambda, d, m or a
count below 1, a ``check`` grid beyond brute force's caps) exits 2 with a usage
message before any data is read or generated.

All numeric output uses full-precision scientific notation.  Result CSVs are
byte-stable for fixed seeds and configs apart from the wall-time columns.
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys
import time
import traceback
from typing import Callable, TextIO

from .brute import check_enumeration_size, solve_brute
from .ccd import solve_ccd
from .datagen import GenSpec, generate, read_dataset_csv, write_dataset_csv, write_metadata
from .errors import InvalidInputError, ProblemTooLargeError
from .locus import solve_locus
from .lp import dump_lp, formulate, solve_lp
from .model import GAP_TOL, SOLVER_IDS, ProblemSpec, SolveResult, check_penalty, validate_result
from .rng import Pcg32

CHECK_GAP_TOL = GAP_TOL  # the name the benchmark harness reads
CHECK_SOLVERS = ("lp", "locus_ternary", "locus_quadrature")  # gaps vs brute
BENCH_SOLVERS = ("lp", "brute", "locus_ternary", "locus_quadrature")


def _sci(v: float) -> str:
    return f"{v:.17e}"


def run_solver(solver_id: str, spec: ProblemSpec, args=None) -> SolveResult:
    """Solve ``spec`` with ``solver_id``.  ``args`` is unused; the benchmark
    harness passes its parsed command line."""
    if solver_id == "lp":
        return solve_lp(spec)
    if solver_id == "brute":
        return solve_brute(spec)
    if solver_id == "locus_ternary":
        return solve_locus(spec, "ternary")
    if solver_id == "locus_quadrature":
        return solve_locus(spec, "quadrature")
    if solver_id == "ccd_plain":
        return solve_ccd(spec)
    raise InvalidInputError(f"unknown solver {solver_id!r}")


def _parse_int_set(text: str) -> list[int]:
    """'1,2,5' or '4-12' (or a mix: '1,4-6') -> sorted ints."""
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            out.update(range(int(lo), int(hi) + 1))
        elif part:
            out.add(int(part))
    if not out:
        raise argparse.ArgumentTypeError(f"no integers in {text!r}")
    return sorted(out)


def _parse_float_list(text: str) -> list[float]:
    vals = [float(p) for p in text.split(",") if p.strip()]
    if not vals:
        raise argparse.ArgumentTypeError(f"no numbers in {text!r}")
    return vals


def cmd_solve(args) -> int:
    try:
        data = read_dataset_csv(args.dataset)
        spec = ProblemSpec(data, args.lam, args.lambda_floor)
        if args.dump_lp:
            dump_lp(formulate(spec), args.dump_lp)
        started = time.perf_counter()
        result = run_solver(args.solver, spec)
        elapsed = time.perf_counter() - started
    except (OSError, InvalidInputError, ProblemTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    validate_result(spec, result)
    beta = ",".join(_sci(v) for v in result.beta.beta)
    print(f"solver:          {result.solver_id}")
    print(f"objective:       {_sci(result.objective)}")
    print(f"beta:            [{beta}]")
    print(f"iterations:      {result.iterations}")
    print(f"objective evals: {result.objective_evals}")
    print(f"wall time:       {elapsed:.6e} s")
    print(f"converged:       {'yes' if result.converged else 'no'}")
    print(
        f"RESULT solver={result.solver_id} converged={int(result.converged)} "
        f"objective={_sci(result.objective)} iterations={result.iterations} "
        f"objective_evals={result.objective_evals} wall_time_s={elapsed:.6e} beta={beta}"
    )
    return 0 if result.converged else 2


def _check_instance(task: dict) -> dict:
    """One check instance: generate, run brute plus the three fast solvers.

    Returns the result row; any solver failure is captured under 'error' so a
    crash inside a worker process still reports the reproducing seed.
    """
    try:
        return _check_instance_inner(task)
    except Exception:  # noqa: BLE001 - reported with the seed by cmd_check
        return {"error": traceback.format_exc(limit=3), "task": task}


def _check_instance_inner(task: dict) -> dict:
    g = GenSpec(**task["genspec"])
    data, _ = generate(g)
    spec = ProblemSpec(data, task["lam"])
    row = {
        "instance": task["instance"],
        "seed": g.seed,
        "d": g.d,
        "m": g.m,
        "lambda": task["lam"],
    }
    reference = solve_brute(spec)
    row["obj_brute"] = reference.objective
    row["time_brute"] = reference.wall_time
    for solver_id in CHECK_SOLVERS:
        started = time.perf_counter()
        res = run_solver(solver_id, spec)
        elapsed = time.perf_counter() - started
        validate_result(spec, res)
        gap = abs(res.objective - reference.objective) / max(abs(reference.objective), 1e-30)
        row[f"obj_{solver_id}"] = res.objective
        row[f"gap_{solver_id}"] = gap
        row[f"time_{solver_id}"] = elapsed
    return row


def cmd_check(args) -> int:
    return _with_outputs([args.out] if args.out else [], lambda files: _check(args, files))


def _check(args, files) -> int:
    picker = Pcg32(args.seed)
    tasks = []
    for i in range(args.n_instances):
        d = args.d[picker.below(len(args.d))]
        m = args.m[picker.below(len(args.m))]
        lam = args.lam[picker.below(len(args.lam))]
        genspec = dict(
            m=m,
            d=d,
            noise_sigma=args.noise_sigma,
            outlier_fraction=args.outlier_fraction,
            seed=args.seed + 1_000_003 * (i + 1),
        )
        tasks.append(dict(instance=i, genspec=genspec, lam=lam))
    if args.parallel > 1:
        # imported here: the pool loads multiprocessing, which no other command runs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            rows = list(pool.map(_check_instance, tasks))
    else:
        rows = [_check_instance(t) for t in tasks]
    for row in rows:
        if "error" in row:
            failing = row["task"]
            print(
                f"error: solver crash on instance {failing['instance']} "
                f"(seed {failing['genspec']['seed']}, d={failing['genspec']['d']}, "
                f"m={failing['genspec']['m']}, lambda={failing['lam']}):\n{row['error']}",
                file=sys.stderr,
            )
            return 3

    header = ["instance", "seed", "d", "m", "lambda", "obj_brute", "time_brute"]
    for s in CHECK_SOLVERS:
        header += [f"obj_{s}", f"gap_{s}", f"time_{s}"]
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for col in header:
            v = row[col]
            cells.append(_sci(v) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    for fh in files:
        _write_lines(fh, lines)

    ok = True
    for s in CHECK_SOLVERS:
        worst = max((row[f"gap_{s}"] for row in rows), default=0.0)
        status = "ok" if worst < CHECK_GAP_TOL else "FAIL"
        ok = ok and worst < CHECK_GAP_TOL
        print(f"{s}: max relative gap vs brute = {_sci(worst)} [{status}]")
    print(f"instances: {len(rows)}; tolerance {CHECK_GAP_TOL:g}")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    paths = [args.out, _medians_path(args.out)]
    return _with_outputs(paths, lambda files: _bench(args, paths, files))


def _bench(args, paths, files) -> int:
    rows = []
    run_index = 0
    for d in args.d:
        for m in args.m:
            for repeat in range(args.repeats):
                seed = args.seed + 7919 * run_index
                run_index += 1
                data, _ = generate(
                    GenSpec(
                        m=m,
                        d=d,
                        noise_sigma=args.noise_sigma,
                        outlier_fraction=args.outlier_fraction,
                        seed=seed,
                    )
                )
                spec = ProblemSpec(data, args.lam)
                for solver_id in args.solvers:
                    started = time.perf_counter()
                    try:
                        res = run_solver(solver_id, spec)
                    except ProblemTooLargeError:  # brute force, beyond its caps
                        rows.append(
                            dict(solver=solver_id, d=d, m=m, repeat=repeat, seed=seed,
                                 wall_time_s=None, objective=None, converged="skipped")
                        )
                        continue
                    elapsed = time.perf_counter() - started
                    validate_result(spec, res)
                    rows.append(
                        dict(solver=solver_id, d=d, m=m, repeat=repeat, seed=seed,
                             wall_time_s=elapsed, objective=res.objective,
                             converged=str(res.converged).lower())
                    )

    header = ["solver", "d", "m", "repeat", "seed", "wall_time_s", "objective", "converged"]
    lines = [",".join(header)]
    for row in rows:
        cells = [
            row["solver"], str(row["d"]), str(row["m"]), str(row["repeat"]), str(row["seed"]),
            "" if row["wall_time_s"] is None else _sci(row["wall_time_s"]),
            "" if row["objective"] is None else _sci(row["objective"]),
            row["converged"],
        ]
        lines.append(",".join(cells))

    med_lines = ["solver,d,m,median_wall_time_s,median_objective"]
    for solver_id in args.solvers:
        for d in args.d:
            for m in args.m:
                cell = [
                    r for r in rows
                    if r["solver"] == solver_id and r["d"] == d and r["m"] == m
                    and r["wall_time_s"] is not None
                ]
                if not cell:
                    med_lines.append(f"{solver_id},{d},{m},,")
                    continue
                mt = statistics.median(r["wall_time_s"] for r in cell)
                mo = statistics.median(r["objective"] for r in cell)
                med_lines.append(f"{solver_id},{d},{m},{_sci(mt)},{_sci(mo)}")
    _write_lines(files[0], lines)
    _write_lines(files[1], med_lines)
    print(f"wrote {len(rows)} runs to {paths[0]}; per-cell medians to {paths[1]}")
    return 0


def _with_outputs(paths: list[str], run: Callable[[list[TextIO]], int]) -> int:
    """``run(files)``, with ``paths`` opened (created or truncated) first, so
    that an unwritable path exits 1 before any solve; a failed write exits 1
    too.  The files are closed on return."""
    try:
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(p, "w", encoding="ascii")) for p in paths]
            return run(files)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _write_lines(fh: TextIO, lines: list[str]) -> None:
    fh.write("\n".join(lines) + "\n")


def _medians_path(out_path: str) -> str:
    stem, dot, ext = str(out_path).rpartition(".")
    return f"{stem}_medians.{ext}" if dot else f"{out_path}_medians"


def cmd_gen(args) -> int:
    g = args.genspec
    data, true_beta = generate(g)
    try:
        write_dataset_csv(data, args.out)
        write_metadata(args.out, g, true_beta)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {data.m} points x {data.d} variables to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladlasso",
        description="Robust L1 regression with an L1 coefficient penalty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="fit one dataset CSV")
    p_solve.add_argument("dataset", help="CSV with header x1,...,xd,y")
    p_solve.add_argument("--lambda", dest="lam", type=float, required=True,
                         help="regularisation weight on the coefficient L1 norm")
    p_solve.add_argument("--lambda-floor", type=float, default=1e-9,
                         help="minimum effective regularisation weight")
    p_solve.add_argument("--solver", default="locus_ternary",
                         choices=SOLVER_IDS)
    p_solve.add_argument("--dump-lp", metavar="PATH",
                         help="also export the standard-form LP as text")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="cross-solver agreement sweep vs brute force")
    p_check.add_argument("--d", type=_parse_int_set, default=[1, 2, 3],
                         help="variable counts, e.g. 1-3 or 1,2,5")
    p_check.add_argument("--m", type=_parse_int_set, default=list(range(4, 13)),
                         help="point counts, e.g. 4-12")
    p_check.add_argument("--lambda", dest="lam", type=_parse_float_list,
                         default=[0.01, 0.1, 1.0], help="regularisation weights, e.g. 0.01,0.1,1")
    p_check.add_argument("--n-instances", type=int, default=50)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--noise-sigma", type=float, default=1.0)
    p_check.add_argument("--outlier-fraction", type=float, default=0.2)
    p_check.add_argument("--out", help="per-instance CSV path")
    p_check.add_argument("--parallel", type=int, default=1,
                         help="run instances in N worker processes")
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser("bench", help="timing grid; writes runs and medians CSVs")
    p_bench.add_argument("--d", type=_parse_int_set, default=[1, 2, 3, 4, 5])
    p_bench.add_argument("--m", type=_parse_int_set, default=[10, 30])
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--noise-sigma", type=float, default=0.0)
    p_bench.add_argument("--outlier-fraction", type=float, default=0.0)
    p_bench.add_argument("--solvers", type=lambda s: s.split(","), default=list(BENCH_SOLVERS),
                         help=f"comma-separated subset of {','.join(SOLVER_IDS)}")
    p_bench.add_argument("--out", default="bench.csv")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="write a synthetic dataset CSV + metadata sidecar")
    p_gen.add_argument("out", help="output CSV path")
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--n-informative", type=int, default=None)
    p_gen.add_argument("--noise-sigma", type=float, default=1.0)
    p_gen.add_argument("--outlier-fraction", type=float, default=0.0)
    p_gen.add_argument("--outlier-scale", type=float, default=10.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def _check_flags(args) -> None:
    """Raise for a flag value that would otherwise fail only after work started."""
    if args.command == "gen":
        args.genspec = GenSpec(  # the spec cmd_gen generates from
            m=args.m, d=args.d, n_informative=args.n_informative, seed=args.seed,
            noise_sigma=args.noise_sigma, outlier_fraction=args.outlier_fraction,
            outlier_scale=args.outlier_scale,
        )
        return
    if args.command == "solve":
        check_penalty(args.lam, args.lambda_floor)
        return
    for lam in args.lam if args.command == "check" else [args.lam]:
        check_penalty(lam)
    for solver_id in getattr(args, "solvers", []):
        if solver_id not in SOLVER_IDS:
            raise InvalidInputError(f"unknown solver {solver_id!r}")
    for flag in ("n_instances", "repeats", "parallel"):
        if getattr(args, flag, 1) < 1:
            raise InvalidInputError(f"--{flag.replace('_', '-')} must be at least 1")
    # GenSpec bounds m and d from below only, so the smallest values decide
    GenSpec(m=min(args.m), d=min(args.d), noise_sigma=args.noise_sigma,
            outlier_fraction=args.outlier_fraction)
    if args.command == "check":
        check_enumeration_size(max(args.m), max(args.d))  # every instance runs brute


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
    except (InvalidInputError, ProblemTooLargeError) as exc:
        parser.error(str(exc))
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ladlasso.cli import main
from ladlasso.datagen import GenSpec, generate, write_dataset_csv


def write_tiny_dataset(path):
    write_dataset_csv(generate(GenSpec(m=1, d=1, true_coefficients=(2.0,), noise_sigma=0.0, seed=0))[0], path)


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSolve:
    def test_brute_on_single_point(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("x1,y\n1.0,2.0\n")
        code = main(["solve", str(data), "--lambda", "0.5", "--solver", "brute"])
        out = capsys.readouterr().out
        assert code == 0
        result_line = [ln for ln in out.splitlines() if ln.startswith("RESULT ")][0]
        assert "solver=brute" in result_line
        assert "objective=1.00000000000000000e+00" in result_line
        assert "beta=2.00000000000000000e+00" in result_line

    def test_solvers_agree_through_cli(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("x1,y\n1.0,2.0\n")
        objectives = {}
        for solver in ("brute", "lp", "locus_ternary", "locus_quadrature", "ccd_plain"):
            code = main(["solve", str(data), "--lambda", "0.5", "--solver", solver])
            assert code == 0
            line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("RESULT ")][0]
            objectives[solver] = float(line.split("objective=")[1].split()[0])
        reference = objectives.pop("brute")
        for solver, value in objectives.items():
            assert value == pytest.approx(reference, rel=1e-6), solver

    def test_missing_file_is_input_error(self, capsys):
        assert main(["solve", "no-such-file.csv", "--lambda", "0.1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_csv_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1.0,huh\n")
        assert main(["solve", str(bad), "--lambda", "0.1"]) == 1
        assert "row 2" in capsys.readouterr().err

    def test_non_ascii_csv_is_input_error(self, tmp_path, capsys):
        # a UTF-8 byte order mark, as spreadsheet exports write
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbfx1,y\n1,2\n3,4.5\n")
        assert main(["solve", str(bom), "--lambda", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "byte 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("m, d", [(20, 7), (60, 6)])
    def test_brute_beyond_its_caps_is_input_error(self, tmp_path, capsys, m, d):
        # d = 7 is over the variable cap, and choose(66, 6) over the candidate cap
        data = tmp_path / "big.csv"
        assert main(["gen", str(data), "--m", str(m), "--d", str(d)]) == 0
        capsys.readouterr()
        assert main(["solve", str(data), "--lambda", "0.1", "--solver", "brute"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_dump_lp_flag_writes_export(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("x1,y\n1.0,2.0\n")
        dump = tmp_path / "form.lp"
        code = main(["solve", str(data), "--lambda", "0.5", "--solver", "lp",
                     "--dump-lp", str(dump)])
        assert code == 0
        assert dump.read_text().startswith("LADLASSO-LP 1\nvars 4 rows 1\n")

    def test_non_convergence_exits_2(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import ladlasso.cli as cli

        data = tmp_path / "one.csv"
        data.write_text("x1,y\n1.0,2.0\n")
        real = cli.run_solver

        def exhausted(solver_id, spec):
            return dataclasses.replace(real(solver_id, spec), converged=False)

        monkeypatch.setattr(cli, "run_solver", exhausted)
        assert main(["solve", str(data), "--lambda", "0.5", "--solver", "brute"]) == 2


class TestCheck:
    def test_small_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "check.csv"
        code = main(["check", "--d", "1", "--m", "4", "--n-instances", "10",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 10
        for row in rows:
            for solver in ("lp", "locus_ternary", "locus_quadrature"):
                assert float(row[f"gap_{solver}"]) < 1e-5

    def test_loose_tolerance_is_caught(self, tmp_path, monkeypatch, capsys):
        # negative control: a sloppy outer search must produce visible gaps
        import ladlasso.linesearch as linesearch

        monkeypatch.setattr(linesearch, "TOLERANCE", 0.9)
        out = tmp_path / "loose.csv"
        code = main(["check", "--d", "2", "--m", "20", "--n-instances", "10",
                     "--seed", "3", "--out", str(out)])
        assert code != 0
        rows = read_csv_rows(out)
        worst = max(float(r["gap_locus_ternary"]) for r in rows)
        assert worst >= 1e-5

    def test_solver_crash_reports_seed_and_exits_3(self, monkeypatch, capsys):
        import ladlasso.cli as cli

        def boom(spec, **kw):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "solve_brute", boom)
        code = main(["check", "--d", "1", "--m", "4", "--n-instances", "2", "--seed", "9"])
        assert code == 3
        err = capsys.readouterr().err
        assert "seed" in err and "synthetic failure" in err

    def test_unwritable_out_is_reported(self, tmp_path, monkeypatch, capsys):
        import ladlasso.cli as cli

        def unsolved(*args, **kw):
            raise AssertionError("solved before the output was opened")

        monkeypatch.setattr(cli, "solve_brute", unsolved)  # a crash would exit 3
        target = tmp_path / "missing-dir" / "x.csv"
        code = main(["check", "--d", "1", "--m", "4", "--n-instances", "2", "--out", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_importing_the_cli_leaves_the_process_pool_out(self):
        # only check --parallel runs a pool, so only it loads multiprocessing
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys, ladlasso.cli; print(' '.join(m for m in sys.modules"
            " if m.startswith('multiprocessing') or m == 'concurrent.futures.process'))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == []

    def test_parallel_matches_sequential(self, tmp_path):
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        argv = ["check", "--d", "1-2", "--m", "4-6", "--n-instances", "6", "--seed", "5"]
        assert main(argv + ["--out", str(seq)]) == 0
        assert main(argv + ["--out", str(par), "--parallel", "2"]) == 0

        def rows_without_times(path):
            rows = read_csv_rows(path)
            return [
                {k: v for k, v in row.items() if not k.startswith("time_")}
                for row in rows
            ]

        assert rows_without_times(seq) == rows_without_times(par)


class TestBench:
    def test_row_counts_and_medians(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--d", "1", "--m", "10", "--repeats", "3",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv_rows(out)
        assert len(rows) == 12  # 4 solvers x 3 repeats
        assert {r["solver"] for r in rows} == {"lp", "brute", "locus_ternary", "locus_quadrature"}
        medians = read_csv_rows(tmp_path / "bench_medians.csv")
        assert len(medians) == 4
        for row in rows:
            assert row["converged"] == "true"

    def test_csv_is_byte_stable_apart_from_times(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["bench", "--d", "1-2", "--m", "10", "--repeats", "2"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        for pa, pb in zip(read_csv_rows(a), read_csv_rows(b)):
            pa.pop("wall_time_s"), pb.pop("wall_time_s")
            assert pa == pb

    def test_unwritable_out_is_reported(self, tmp_path, monkeypatch, capsys):
        import ladlasso.cli as cli

        def unsolved(*args, **kw):
            raise AssertionError("solved before the output was opened")

        monkeypatch.setattr(cli, "run_solver", unsolved)
        target = tmp_path / "missing-dir" / "x.csv"
        code = main(["bench", "--d", "1", "--m", "10", "--repeats", "1", "--solvers", "lp",
                     "--out", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not target.parent.exists()

    def test_brute_force_cap_recorded_as_skipped(self, tmp_path, capsys):
        out = tmp_path / "big.csv"
        code = main(["bench", "--d", "7", "--m", "10", "--repeats", "1",
                     "--solvers", "brute,locus_ternary", "--out", str(out)])
        assert code == 0
        rows = read_csv_rows(out)
        brute_rows = [r for r in rows if r["solver"] == "brute"]
        assert brute_rows and all(r["converged"] == "skipped" for r in brute_rows)
        assert all(r["wall_time_s"] == "" for r in brute_rows)
        locus_rows = [r for r in rows if r["solver"] == "locus_ternary"]
        assert locus_rows and all(r["converged"] == "true" for r in locus_rows)


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["check", "--n-instances", "0"], "--n-instances must be at least 1",
                     id="check--n-instances=0"),
        pytest.param(["check", "--parallel", "0"], "--parallel must be at least 1",
                     id="check--parallel=0"),
        pytest.param(["check", "--parallel", "-1"], "--parallel must be at least 1",
                     id="check--parallel=-1"),
        pytest.param(["bench", "--repeats", "0"], "--repeats must be at least 1",
                     id="bench--repeats=0"),
        pytest.param(["check", "--d", "0"], "need m >= 1 and d >= 1", id="check--d=0"),
        pytest.param(["check", "--d", "9"], "d=9 exceeds the enumeration limit of 6 variables",
                     id="check--d=9"),
        pytest.param(["check", "--m", "0"], "need m >= 1 and d >= 1", id="check--m=0"),
        pytest.param(["check", "--lambda", "-1"], "lam must be finite and >= 0",
                     id="check--lambda=-1"),
        pytest.param(["bench", "--lambda", "-1"], "lam must be finite and >= 0",
                     id="bench--lambda=-1"),
        pytest.param(["bench", "--solvers", "lp,foo", "--d", "1", "--m", "4", "--repeats", "1"],
                     "unknown solver 'foo'", id="bench--solvers=lp,foo"),
        pytest.param(["solve", "data.csv", "--lambda", "-1"], "lam must be finite and >= 0",
                     id="solve--lambda=-1"),
        pytest.param(["gen", "out.csv", "--m", "0", "--d", "1"], "need m >= 1 and d >= 1",
                     id="gen--m=0"),
    ],
)
def test_bad_flags_exit_2_before_any_instance(argv, message, tmp_path, monkeypatch, capsys):
    import ladlasso.cli as cli

    def no_instance(*args, **kw):
        raise AssertionError("an instance was read or generated")

    monkeypatch.setattr(cli, "generate", no_instance)
    monkeypatch.setattr(cli, "read_dataset_csv", no_instance)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestGen:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["gen", str(path), "--m", "30", "--d", "5", "--seed", "42"]) == 0
        assert a.read_bytes() == b.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["seed"] == 42 and meta["m"] == 30 and meta["d"] == 5

    def test_shape_of_output(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        assert main(["gen", str(path), "--m", "30", "--d", "5", "--seed", "1"]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,x3,x4,x5,y"
        assert len(lines) == 31
        assert all(len(ln.split(",")) == 6 for ln in lines[1:])

    def test_noiseless_round_trip_recovers_coefficients(self, tmp_path, capsys):
        path = tmp_path / "clean.csv"
        assert main(["gen", str(path), "--m", "12", "--d", "3", "--seed", "8",
                     "--noise-sigma", "0"]) == 0
        meta = json.loads((tmp_path / "clean.csv.meta.json").read_text())
        code = main(["solve", str(path), "--lambda", "1e-9", "--solver", "brute"])
        assert code == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.startswith("RESULT ")][0]
        beta = [float(v) for v in line.split("beta=")[1].split()[0].split(",")]
        assert np.abs(np.array(beta) - np.array(meta["true_beta"])).max() < 1e-6

    def test_unwritable_path_is_reported(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.csv"
        assert main(["gen", str(target), "--m", "3", "--d", "1"]) == 1
        assert "error" in capsys.readouterr().err

"""Command line interface: envelopes, schema, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np

import fqdist.cli as cli
import fqdist.pairs as pairs
import fqdist.spectral as spectral
from fqdist import (GenSpec, PointSet, generate, make_field,
                    write_pointset)
from fqdist.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schema" / "report.json")
    .read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    if report is not None:
        jsonschema.validate(report, SCHEMA)
    return code, report


def per_check(report):
    return {row["name"]: (row["pass"], row["fail"])
            for row in report["perCheck"]}


def test_gauss_command(capsys):
    code, report = run(capsys, "gauss", "--p", "3", "--ell", "2")
    assert code == 0
    assert report["command"] == "gauss"
    assert report["config"] == {"p": 3, "ell": 2}
    assert report["violations"] == []
    checks = per_check(report)
    assert checks["closed_form"] == (1, 0)
    assert checks["sign_table"][0] == 6  # n = 2, 4, ..., 12
    assert report["results"]["q"] == 9
    assert abs(report["results"]["g1_direct"]["re"] - 3) < 1e-9


def test_gauss_output_file(tmp_path, capsys):
    out = tmp_path / "gauss.json"
    code = main(["gauss", "--p", "5", "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["results"]["q"] == 5


def test_verify_command(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, report = run(capsys, "verify", "--p", "3", "--d", "2",
                       "--trials", "12", "--seed", "5",
                       "--csv", str(csv_path))
    assert code == 0
    checks = per_check(report)
    assert checks["oracle_equivalence"] == (12, 0)
    assert checks["cone_lift"] == (12, 0)
    assert checks["plancherel"] == (12, 0)
    assert checks["mass_lower_bound"] == (12, 0)
    assert checks["direct_identity"] == (12, 0)
    assert checks["cone_transform"] == (1, 0)
    assert checks["sphere_transform"] == (1, 0)
    assert checks["counting_lemma"] == (1, 0)
    assert report["results"]["sets"] == 12
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 12 * 3  # one row per set per bound clause
    assert set(r["name"] for r in rows) <= {
        "sq_plus_zr", "sq_even_dim", "sq_even_generic", "square_set_size"}
    assert all(r["holds"] == "True" for r in rows)


def test_verify_computes_each_intermediate_once(rebind, capsys):
    calls = {}

    def counted(real):
        calls[real.__name__] = 0

        def wrapper(*args, **kwargs):
            calls[real.__name__] += 1
            return real(*args, **kwargs)
        return wrapper

    for module, name in ((pairs, "count_pairs"),
                         (spectral, "spectral_masses_exact"),
                         (spectral, "dft_indicator")):
        rebind(module, name, counted)
    code, report = run(capsys, "verify", "--p", "5", "--d", "3",
                       "--trials", "3")
    assert code == 0
    sets = report["results"]["sets"]
    assert sets == 3
    assert calls["count_pairs"] == sets
    assert calls["spectral_masses_exact"] == sets
    # one per set for the direct identity, then the cone, the sphere
    # (shared by its closed form and the counting lemma) and E
    assert calls["dft_indicator"] == sets + 3


def test_verify_parallel_matches_sequential(tmp_path, capsys):
    argv = ["verify", "--p", "3", "--d", "2", "--trials", "10",
            "--seed", "1"]
    seq_path, par_path = tmp_path / "seq.json", tmp_path / "par.json"
    assert main(argv + ["--output", str(seq_path)]) == 0
    assert main(argv + ["--jobs", "3", "--output", str(par_path)]) == 0
    seq = json.loads(seq_path.read_text())
    par = json.loads(par_path.read_text())
    seq["config"].pop("jobs")
    par["config"].pop("jobs")
    assert seq == par


def test_cli_import_leaves_out_the_process_pool():
    # only --jobs > 1 needs a process pool; a fresh interpreter shows
    # whether importing the CLI pulled its modules in
    code = ("import sys, fqdist.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_analyze_command(tmp_path, capsys):
    ctx = make_field(3)
    A = generate(ctx, 3, GenSpec(kind="random", size=9, seed=4))
    path = tmp_path / "set.txt"
    write_pointset(A, path)
    code, report = run(capsys, "analyze", "--set", str(path))
    assert code == 0
    res = report["results"]
    assert res["size"] == 9
    assert res["set"]["p"] == 3 and res["set"]["d"] == 3
    assert sum(res["pair_counts"].values()) == 81
    assert "masses" in res and "zero_mass" in res
    names = {row["name"] for row in res["bounds"]}
    assert {"sq_plus_zr", "sq_odd_dim"} <= names
    # analyzing the identical file again reproduces the report exactly
    code2, report2 = run(capsys, "analyze", "--set", str(path))
    assert report2 == report


def test_analyze_runs_the_per_set_checks_of_verify(tmp_path, capsys):
    path = tmp_path / "set.txt"
    write_pointset(generate(make_field(7), 3,
                            GenSpec(kind="random", size=40, seed=1)), path)
    code, analyzed = run(capsys, "analyze", "--set", str(path))
    assert code == 0
    code, verified = run(capsys, "verify", "--p", "7", "--d", "3",
                         "--trials", "1", "--size-min", "40",
                         "--size-max", "40")
    assert code == 0
    per_cell = {"cone_transform", "sphere_transform", "counting_lemma"}
    assert per_cell <= set(per_check(verified))
    assert set(per_check(analyzed)) == set(per_check(verified)) - per_cell


def test_search_square_command(tmp_path, capsys):
    witness = tmp_path / "witness.txt"
    code, report = run(capsys, "search-square", "--p", "5", "--d", "2",
                       "--witness-out", str(witness))
    assert code == 0
    assert report["results"]["size"] == 5
    assert report["results"]["bound"] == "5/1"
    assert witness.exists()
    code, report = run(capsys, "search-square", "--p", "3", "--d", "2",
                       "--strategy", "exhaustive")
    assert code == 0
    assert report["results"]["size"] == 3
    assert report["results"]["exact"] is True


def test_coverage_command(capsys):
    code, report = run(capsys, "coverage", "--p", "5", "--d", "3",
                       "--size", "100", "--seeds", "0,1")
    assert code == 0
    seeds = report["results"]["per_seed"]
    assert [row["seed"] for row in seeds] == [0, 1]
    assert all(row["hypothesis_met"] for row in seeds)
    assert all(row["coverage"] == 1.0 for row in seeds)
    assert per_check(report)["full_coverage"] == (2, 0)


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1                                # no command
    assert main(["gauss"]) == 1                         # missing --p
    assert main(["frobnicate", "--p", "3"]) == 1        # unknown command
    assert main(["verify", "--p", "3"]) == 1            # missing --d
    capsys.readouterr()


def test_domain_and_io_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("fq p=3 ell=1 d=2 mod=0,1\n9,9\n")
    line = tmp_path / "line.txt"
    line.write_text("fq p=3 ell=1 d=1 mod=0,1\n0\n1\n")
    flat = tmp_path / "flat.txt"
    flat.write_text("fq p=3 ell=1 d=0 mod=0,1\n0\n")
    unwritable = str(tmp_path / "no-such-dir" / "out")
    kept = tmp_path / "kept.json"
    kept.write_text("")
    cases = [
        ["gauss", "--p", "4"],                              # 4 is not prime
        ["analyze", "--set", str(tmp_path / "missing.txt")],
        ["analyze", "--set", str(bad)],                     # parse error
        ["verify", "--p", "3", "--d", "0"],
        ["verify", "--p", "3", "--d", "2", "--trials", "0"],
        ["verify", "--p", "3", "--d", "2", "--trials", "-5"],
        ["verify", "--p", "3", "--d", "2", "--jobs", "0"],
        ["search-square", "--p", "3", "--d", "2", "--restarts", "-1"],
        ["coverage", "--p", "5", "--d", "3", "--size", "10",
         "--seeds", ",x"],
        ["verify", "--p", "3", "--d", "2", "--seed", "-1"],
        ["search-square", "--p", "3", "--d", "2", "--strategy", "greedy",
         "--seed", "-1"],
        ["coverage", "--p", "5", "--d", "3", "--size", "10",
         "--seeds", "0,-1"],
        ["search-square", "--p", "3", "--d", "2", "--strategy",
         "exhaustive", "--node-budget", "0"],
        ["search-square", "--p", "3", "--d", "2", "--strategy",
         "exhaustive", "--node-budget", "-5"],
        # the budget runs out before the search places a point
        ["search-square", "--p", "3", "--d", "3", "--strategy",
         "exhaustive", "--node-budget", "1"],
        # output targets are opened before the work, so nothing is printed
        ["verify", "--p", "3", "--d", "3", "--trials", "1",
         "--csv", unwritable],
        ["verify", "--p", "3", "--d", "3", "--trials", "1",
         "--output", unwritable],
        ["search-square", "--p", "3", "--d", "2", "--witness-out",
         unwritable],
        ["analyze", "--set", str(line)],    # d = 1: the checks need d >= 2
        # below the least size with n^2 >= 16 q^(d+1) nothing is checked
        ["coverage", "--p", "3", "--ell", "2", "--d", "3", "--size", "200"],
        ["coverage", "--p", "3", "--d", "1", "--size", "2"],
        ["analyze", "--set", str(flat)],    # d = 0 in the header
        # a command that fails after its targets were opened removes the
        # files it created and leaves an existing one alone
        ["verify", "--p", "4", "--d", "2",
         "--output", str(tmp_path / "new-report.json"),
         "--csv", str(tmp_path / "new-rows.csv")],
        ["verify", "--p", "4", "--d", "2", "--output", str(kept)],
        ["search-square", "--p", "3", "--d", "3", "--strategy",
         "exhaustive", "--node-budget", "1",
         "--witness-out", str(tmp_path / "new-witness.txt")],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "", argv
        assert len(lines) == 1 and lines[0].startswith("fqdist: error:"), \
            (argv, captured.err)
        if "--node-budget" in argv:
            assert "--node-budget" in lines[0], lines[0]
    assert not list(tmp_path.glob("new-*"))
    assert kept.exists()


def test_analyze_refuses_a_cone_lift_over_the_cap(tmp_path, capsys,
                                                  monkeypatch):
    # q^d = 251^3 > 10^7 prefix norms: the cone lift refuses before it
    # enumerates its (20 * 251)^2 lifted pairs, so the bounds never run
    coords = np.random.default_rng(0).choice(251, size=(20, 3))
    A = PointSet(make_field(251), 3, map(tuple, coords))
    assert len(A) == 20
    path = tmp_path / "set.txt"
    write_pointset(A, path)

    def unreached(*args):
        raise AssertionError("the cone lift did not refuse the set")

    monkeypatch.setattr(cli, "check_all", unreached)
    assert main(["analyze", "--set", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("fqdist: error:"), \
        captured.err
    assert "Traceback" not in captured.err


def test_violations_exit_two(capsys, monkeypatch):
    # force a failed check to exercise the exit-code contract
    monkeypatch.setattr(cli, "is_square_distance_set", lambda A: False)
    code = main(["search-square", "--p", "3", "--d", "2"])
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert code == 2
    assert report["violations"]
    assert per_check(report)["witness_is_square_set"] == (0, 1)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    from fqdist import __version__
    assert capsys.readouterr().out.strip() == __version__

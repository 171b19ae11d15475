"""Smoke test of the names the benchmark under bench/ calls.

The set-up probe and the span tracer import fqdist by name and patch its
module globals, so they run in subprocesses with the tree's src on
PYTHONPATH.  A rename that would break the benchmark fails here first.
"""

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fqdist import GenSpec, generate, make_field, write_pointset

ROOT = Path(__file__).resolve().parents[1]

# (p, ell, d, build kernels) for the cells of the four workloads
PROBE_CELLS = ["7", "1", "3", "1", "3", "2", "3", "1",
               "43", "1", "3", "1", "7", "1", "3", "0"]


def run_bench_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_setup_probe_runs_on_workload_cells():
    out = run_bench_script("bench/setup_probe.py", *PROBE_CELLS)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) > 0


def test_tracer_wraps_and_runs_the_cli(tmp_path):
    spans = tmp_path / "spans.npz"
    out = run_bench_script("bench/tracer.py", str(spans), "--version")
    assert out.returncode == 0, out.stderr
    assert spans.exists()


def traced_run(tmp_path, commands):
    """Run each CLI argument list under the tracer, as the benchmark's
    traced repeats do, and sum the spans in bench/layers.py's Trace.
    Returns the trace, the reports and the tracer's per-command meta."""
    layers = importlib.import_module("layers")
    trace, reports, metas = layers.Trace(), [], []
    for index, args in enumerate(commands):
        spans = tmp_path / f"spans{index}.npz"
        start = time.perf_counter()
        probe = run_bench_script("bench/tracer.py", str(tmp_path / "probe.npz"),
                                 "--version")
        probe_wall = time.perf_counter() - start
        assert probe.returncode == 0, probe.stderr
        start = time.perf_counter()
        out = run_bench_script("bench/tracer.py", str(spans), *args)
        wall = time.perf_counter() - start
        assert out.returncode == 0, out.stderr
        reports.append(json.loads(out.stdout))
        trace.add(spans, wall, probe_wall)
        with np.load(spans) as data:
            metas.append(json.loads(str(data["meta"])))
    return trace, reports, metas


# the two timing-share checks, which depend on the machine's load
TIMING_PROBLEMS = ("cli.main_self_s ", "layer self times")


def structural_problems(trace, sets, work):
    """check_trace's problems with a traced run of `sets` point sets,
    less the timing shares: spans that do not nest, or counted work that
    disagrees with `work`, the work the reports describe."""
    layers = importlib.import_module("layers")
    metrics = trace.metrics(sets)
    return [problem for problem in layers.check_trace(trace, metrics, work)
            if not problem.startswith(TIMING_PROBLEMS)]


@pytest.fixture
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_tracer_counts_work_of_a_verify_run(command, tmp_path, bench_path):
    # the tracer reads the point set from each call's first positional
    # argument; a call that passes it otherwise fails the run here.  The
    # per-set checks must call each layer through cli's module globals,
    # or the tracer counts no call of it and charges its time to cli
    if command == "verify":
        args = ["--p", "3", "--d", "3", "--trials", "2",
                "--size-min", "4", "--size-max", "6"]
        counted = ("count_pairs", "cone_lift_check", "dft_indicator")
    else:
        path = tmp_path / "set.txt"
        write_pointset(generate(make_field(3), 3,
                                GenSpec(kind="random", size=6, seed=0)),
                       path)
        args = ["--set", str(path)]
        counted = ("count_pairs", "cone_lift_check")
    trace, reports, (meta,) = traced_run(tmp_path, [[command, *args]])
    for name in counted:
        assert meta["work"].get(name, 0) > 0, (name, meta["work"])
    for name in ("count_pairs", "cone_lift_check", "spectral_masses_exact"):
        assert meta["calls"].get(name, 0) > 0, (name, meta["calls"])
    if command == "verify":
        # pairs_enumerated must equal count_pairs_per_set x sum n^2
        workloads = importlib.import_module("workloads")
        cell = workloads.VerifyCell(p=3, ell=1, d=3, trials=2, size_min=4,
                                    size_max=6)
        work = workloads.work_counts(
            workloads.Workload("verify-small", cell, ()), reports)
        assert structural_problems(trace, work["sets"], work) == []
    else:
        assert structural_problems(trace, 1, {}) == []


def test_traced_search_and_coverage_pass_the_trace_checks(tmp_path,
                                                          bench_path):
    # explore's pair of commands, small: the traced search nodes and
    # distance pairs must equal what the reports say
    workloads = importlib.import_module("workloads")
    explore = workloads.WORKLOADS["explore"]
    commands = [["search-square", "--p", "3", "--d", "3", "--strategy",
                 "exhaustive", "--node-budget", "5000", "--seed", "0"],
                ["coverage", "--p", "5", "--d", "3", "--size", "100",
                 "--seeds", "0,1"]]
    trace, reports, _ = traced_run(tmp_path, commands)
    work = workloads.work_counts(explore, reports)
    assert work["search_nodes"] > 0
    sets = workloads.sets_checked(explore, reports)
    assert structural_problems(trace, sets, work) == []


def test_tracer_counts_distance_pairs_of_a_coverage_run(tmp_path):
    # the distance_pairs metric is computed from distance_set's first
    # positional argument, one n^2 per call, whatever the scan stops at
    spans = tmp_path / "s.npz"
    out = run_bench_script("bench/tracer.py", str(spans), "coverage",
                           "--p", "5", "--d", "3", "--size", "100",
                           "--seeds", "0,1")
    assert out.returncode == 0, out.stderr
    with np.load(spans) as data:
        meta = json.loads(str(data["meta"]))
    assert meta["calls"]["distance_set"] == 2
    assert meta["work"]["distance_set"] == 2 * 100**2

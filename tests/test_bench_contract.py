"""Smoke test of the names the benchmark under bench/ calls.

The set-up probe and the span tracer import fqdist by name and patch its
module globals, so they run in subprocesses with the tree's src on
PYTHONPATH.  A rename that would break the benchmark fails here first.
"""

import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_tracer_counts_work_of_a_verify_run(command, tmp_path):
    # the tracer reads the point set from each call's first positional
    # argument; a call that passes it otherwise fails the run here.  The
    # per-set checks must call each layer through cli's module globals,
    # or the tracer counts no call of it and charges its time to cli
    spans = tmp_path / "s.npz"
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
    out = run_bench_script("bench/tracer.py", str(spans), command, *args)
    assert out.returncode == 0, out.stderr
    with np.load(spans) as data:
        meta = json.loads(str(data["meta"]))
    for name in counted:
        assert meta["work"].get(name, 0) > 0, (name, meta["work"])
    for name in ("count_pairs", "cone_lift_check", "spectral_masses_exact"):
        assert meta["calls"].get(name, 0) > 0, (name, meta["calls"])


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

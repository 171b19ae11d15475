"""fqdist benchmark: whole CLI runs in fresh interpreters, gated on
correct output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  With ``--trace 0`` the run
repeats the workload's CLI commands as fresh ``python -m fqdist.cli``
processes for about S seconds (at least MIN_REPEATS times), each repeat
preceded by set-up probes (setup_probe.py).  Every timed sample is
scaled by a calibration run next to it (see ``calibration``), and the
run reports the medians of the calibrated wall time, throughput and
set-up time, and the median peak RSS; the raw samples' counts, minima
and medians are logged above the result.
With ``--trace 1`` it alternates untraced repeats with repeats under
tracer.py and reports the medians of the per-layer metrics.

Every repeat passes the correctness gate or counts as failed: exit code
0, no traceback, no timeout, no violation, a report that validates
against schema/report.json, the same report (``metrics`` aside) on every
repeat of a seed and, for the seeds in digests.json, the committed one,
plus the workload's own checks in workloads.py.

Human-readable lines go first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every run passed, 1 when one failed, and 2 when the
benchmark cannot run at all (for instance without the source tree).
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy

from layers import PER_LAYER, Trace, check_trace
from workloads import (WORKLOADS, check_reports, commands, sets_checked,
                       work_counts)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCHEMA = ROOT / "schema" / "report.json"
DIGESTS = BENCH / "digests.json"

END_TO_END = [("wall_s", "s"), ("sets_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

CHILD_TIMEOUT = 60.0      # one CLI process or set-up probe
RUN_LIMIT = 150.0         # the whole benchmark run, well inside 180 s
MIN_REPEATS = 3           # untraced repeats with --trace 0
MIN_TRACED_PAIRS = 2      # (untraced, traced) pairs with --trace 1
SETUP_SHARE = 0.25        # share of the time spent on set-up probes
MAX_PROBES_PER_REPEAT = 8
REFERENCE_CAL_S = 0.15    # calibration unit time the reported times assume
CAL_SHARE = 0.1           # each calibration lasts this share of a repeat

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    """Fresh-run environment: the tree's src on PYTHONPATH, no kernel
    disk cache, one BLAS/OpenMP thread."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("FQDIST_KERNEL_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def report_digest(report):
    """sha256 of the report with its optional metrics block removed."""
    body = {k: v for k, v in report.items() if k != "metrics"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None; git is
    kept from searching the directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


@contextlib.contextmanager
def work_dir(prefix):
    """A fresh directory under .bench_work in the checkout, removed (with
    .bench_work, once empty) on exit."""
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Child:
    code: int
    timed_out: bool
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Repeat:
    wall: float = 0.0
    rss_mb: float = 0.0
    reports: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    work: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    sets: int = 0


class Runner:
    """Runs one workload for one seed and applies the gate."""

    def __init__(self, workload, seed, work_dir, expected_digests=None):
        self.workload = workload
        self.seed = seed
        self.commands = commands(workload, seed)
        self.work_dir = work_dir
        self.env = child_env()
        schema = json.loads(SCHEMA.read_text())
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        self.expected = expected_digests
        self.seen = {}
        self.deadline = time.perf_counter() + RUN_LIMIT

    def run_child(self, argv):
        """One fresh interpreter; wall time and peak RSS from wait4."""
        timeout = max(0.0, min(CHILD_TIMEOUT,
                               self.deadline - time.perf_counter()))
        out_path = self.work_dir / "stdout"
        err_path = self.work_dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            # wait on a pidfd: no polling, and wait4 reaps with the rusage
            pidfd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([pidfd], [], [], timeout)[0]
            finally:
                os.close(pidfd)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(code=proc.returncode, timed_out=timed_out, wall=wall,
                     rss_mb=usage.ru_maxrss / 1024.0,
                     stdout=out_path.read_text(errors="replace"),
                     stderr=err_path.read_text(errors="replace"))

    def _gate(self, index, child, rep):
        """The report of one CLI process, or None with rep.problems set."""
        if child.timed_out:
            rep.problems.append(f"timed out after {child.wall:.1f} s")
            return None
        if child.code != 0:
            rep.problems.append(f"exit code {child.code}")
        if "Traceback (most recent call last)" in child.stderr:
            rep.problems.append("traceback on stderr")
        try:
            report = json.loads(child.stdout)
        except ValueError:
            rep.problems.append("stdout is not one JSON report")
            return None
        error = next(iter(self.validator.iter_errors(report)), None)
        if error is not None:
            rep.problems.append(f"schema: {error.message}")
            return None
        if report["violations"]:
            rep.problems.append(f"{len(report['violations'])} violations, "
                                f"first {report['violations'][0]}")
        digest = report_digest(report)
        rep.digests.append(digest)
        if self.expected is not None and digest != self.expected[index]:
            rep.problems.append(f"{report['command']} report differs from "
                                f"the committed digest for seed {self.seed}")
        if self.seen.setdefault(index, digest) != digest:
            rep.problems.append(f"{report['command']} report differs "
                                f"between repeats of seed {self.seed}")
        return report

    def repeat(self, traced):
        rep = Repeat()
        trace = Trace()
        for index, cli_args in enumerate(self.commands):
            spans = self.work_dir / f"spans{index}.npz"
            if traced:
                # the tracer's start-up alone: --version returns at once
                probe = self.run_child([str(BENCH / "tracer.py"),
                                        str(spans), "--version"])
                if probe.code != 0 or probe.timed_out:
                    rep.problems.append("tracer start-up probe failed")
                    return rep
                argv = [str(BENCH / "tracer.py"), str(spans), *cli_args]
            else:
                argv = ["-m", "fqdist.cli", *cli_args]
            child = self.run_child(argv)
            rep.wall += child.wall
            rep.rss_mb = max(rep.rss_mb, child.rss_mb)
            report = self._gate(index, child, rep)
            if report is None:
                return rep
            rep.reports.append(report)
            if traced:
                trace.add(spans, child.wall, probe.wall)
        rep.problems += check_reports(self.workload, self.seed, rep.reports)
        if rep.problems:
            return rep
        rep.sets = sets_checked(self.workload, rep.reports)
        rep.work = work_counts(self.workload, rep.reports)
        if traced:
            rep.layers = trace.metrics(rep.sets)
            rep.problems += check_trace(trace, rep.layers, rep.work)
        return rep

    def setup_probe(self):
        """(seconds the probe measured, or None if it failed; its wall)."""
        cells = [str(v) for cell in self.workload.setup_cells for v in cell]
        child = self.run_child([str(BENCH / "setup_probe.py"), *cells])
        try:
            value = float(child.stdout)
        except ValueError:
            value = 0.0
        if child.code != 0 or child.timed_out or not value > 0:
            return None, child.wall
        return value, child.wall


_CAL_RNG = numpy.random.default_rng(0)
_CAL_POINTS = _CAL_RNG.integers(0, 49, size=(1000, 3))
_CAL_TABLE = _CAL_RNG.integers(0, 7, size=4096)


def _calibration_unit():
    """Seconds for a fixed mix of interpreter-bound and numpy work in
    this process, about the same share of each: dictionary churn like the
    search's, and an all-pairs difference and table lookup like the pair
    counts'.  It does not touch fqdist, so it measures only how fast the
    machine runs at that moment."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(400_000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) & 7
    diff = (_CAL_POINTS[:, None, :] - _CAL_POINTS[None, :, :]) % 49
    hits = _CAL_TABLE[(diff[..., 0] * 3 + diff[..., 1]) & 4095]
    acc += int(numpy.count_nonzero(hits == 0))
    return time.perf_counter() - start


def calibration(seconds):
    """Mean time of the calibration unit, repeated for at least `seconds`
    and at least once."""
    start, units = time.perf_counter(), []
    while not units or time.perf_counter() - start < seconds:
        units.append(_calibration_unit())
    return statistics.mean(units)


def _log_spread(log, name, values):
    """Sample count, minimum, median and the highest order statistic
    with at least ten samples above it."""
    ordered = sorted(values)
    line = (f"samples {name}: n={len(ordered)} min={ordered[0]:.4f} "
            f"median={statistics.median(ordered):.4f}")
    if len(ordered) > 10:
        rank = len(ordered) - 10
        line += f" p{100 * rank // len(ordered)}={ordered[rank - 1]:.4f}"
    log(line)


def measure(runner, seconds, trace, log):
    """Repeat the workload for about `seconds`, and at least MIN_REPEATS
    (untraced) or MIN_TRACED_PAIRS (traced) times; return attempted and
    failed run counts and the metric values.

    Untraced, each repeat is preceded by set-up probes sized to take
    about SETUP_SHARE of the time, and a calibration lasting CAL_SHARE of
    a repeat runs before the probes, between probes and repeat, and after
    the repeat; each sample is divided by the mean of the two
    calibrations around it.  Traced, each round is an untraced repeat
    followed by a traced one.
    """
    start = time.perf_counter()
    counts = {"attempted": 0, "failed": 0}
    probes, plain, traced, rounds = [], [], [], []
    probe_cal, plain_cal = [], []
    n_probes = 1
    minimum = MIN_TRACED_PAIRS if trace else MIN_REPEATS
    cal_seconds = 0.0
    cal_before = None if trace else calibration(cal_seconds)

    def record(label, problems, text):
        counts["attempted"] += 1
        counts["failed"] += bool(problems)
        log(f"{label} {counts['attempted']}: {text}  "
            + ("FAILED: " + "; ".join(problems) if problems else "ok"))
        return not problems

    def repeat(is_traced, good):
        rep = runner.repeat(traced=is_traced)
        ok = record("traced" if is_traced else "repeat", rep.problems,
                    f"wall {rep.wall:.4f} s  peak rss {rep.rss_mb:.1f} MB")
        if ok:
            good.append(rep)
        return rep, ok

    while (not rounds
           or runner.deadline - time.perf_counter() > 2 * max(rounds)) and (
               len(rounds) < minimum or time.perf_counter() - start < seconds):
        round_start = time.perf_counter()
        if trace:
            repeat(False, plain)
            repeat(True, traced)
        else:
            probe_wall, new_probes = 0.0, []
            for _ in range(n_probes):
                value, wall = runner.setup_probe()
                probe_wall += wall
                if record("setup probe", [] if value else ["probe failed"],
                          f"{value or 0:.4f} s"):
                    new_probes.append(value)
            cal_mid = calibration(cal_seconds)
            rep, ok = repeat(False, plain)
            cal_seconds = CAL_SHARE * rep.wall
            cal_after = calibration(cal_seconds)
            log(f"calibration {cal_before:.4f} {cal_mid:.4f} "
                f"{cal_after:.4f} s")
            probes += new_probes
            probe_cal += [(cal_before + cal_mid) / 2] * len(new_probes)
            if ok:
                plain_cal.append((cal_mid + cal_after) / 2)
            cal_before = cal_after
            share = SETUP_SHARE / (1 - SETUP_SHARE)
            n_probes = min(MAX_PROBES_PER_REPEAT, max(1, round(
                share * rep.wall * n_probes / probe_wall)))
        rounds.append(time.perf_counter() - round_start)

    metrics = {}
    if trace and plain and traced:
        median = statistics.median
        metrics = {name: median([r.layers[name] for r in traced])
                   for name in traced[0].layers}
        metrics["cli.trace_overhead_s"] = (median([r.wall for r in traced])
                                           - median([r.wall for r in plain]))
    elif not trace and plain and probes:
        walls = [r.wall for r in plain]
        _log_spread(log, "raw wall", walls)
        _log_spread(log, "raw setup", probes)
        _log_spread(log, "calibration", plain_cal)

        def calibrated(values, cals):
            return [REFERENCE_CAL_S * v / c for v, c in zip(values, cals)]

        walls = calibrated(walls, plain_cal)
        setups = calibrated(probes, probe_cal)
        _log_spread(log, "wall_s", walls)
        _log_spread(log, "setup_s", setups)
        metrics = {
            "wall_s": statistics.median(walls),
            "sets_per_s": statistics.median(
                [r.sets / w for r, w in zip(plain, walls)]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([r.rss_mb for r in plain]),
        }
    good = traced or plain
    if good:
        log("work " + " ".join(f"{k}={v}" for k, v in good[0].work.items()))
    return counts["attempted"], counts["failed"], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "fqdist" / "cli.py", SCHEMA]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: cannot run, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    digests = json.loads(DIGESTS.read_text())
    expected = digests.get(args.workload, {}).get(str(args.seed))

    def log(line):
        print(line, flush=True)

    log(f"fqdist benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log(f"commit={git_commit()} src_sha256={source_digest()[:16]} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}")
    with work_dir("run-") as scratch:
        runner = Runner(workload, args.seed, scratch, expected)
        for cli_args in runner.commands:
            log("command: python -m fqdist.cli " + " ".join(cli_args))
        log("committed digest: "
            + ("yes" if expected else "none for this seed"))
        attempted, failed, values = measure(runner, args.seconds,
                                            args.trace, log)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    correct = failed == 0 and len(metrics) == len(units)
    for name, m in metrics.items():
        log(f"{name:32s} {m['value']:.6g} {m['unit']}")
    log(f"{'fail_share':32s} {failed / max(attempted, 1):.6g} "
        f"({failed} of {attempted} runs failed)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Batch command line interface.

Commands:
  gauss          direct vs closed-form Gauss sum and the sign table
  verify         randomized identity and bound sweep over one (q, d) cell
  analyze        one-set deep dive from a point-set file
  search-square  greedy or exhaustive square-distance-set search
  coverage       distance-set coverage of seeded random sets

Every command emits a JSON report (stdout by default) with the config
echoed back, per-check pass/fail tallies, and a violation list.  Exact
rationals are serialized as "num/den" strings.  Exit codes: 0 all checks
passed, 2 at least one verified identity or bound failed, 1 usage or
I/O error.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from . import __version__
from .bounds import check_all, is_square_distance_set, square_set_size_bound
from .characters import gauss_closed, gauss_direct, gauss_signs
from .errors import FqdistError
from .field import make_field
from .generators import (GenSpec, exhaustive_square_distance_max, generate,
                         greedy_square_distance_search)
from .geometry import (PointSet, distance_set, enumerate_cone,
                       enumerate_sphere_zero, unpack_coords)
from .pairs import (MASTER_CAP, PAIR_CAP, cone_lift_check, count_pairs,
                    predict_from_spectrum, sq_zr_fourier_residual)
from .setfiles import read_pointset, write_pointset
from .spectral import (DFT_CAP, cone_fourier_formula, dft_indicator,
                       kernels_for, sphere0_fourier_formula,
                       spectral_masses_exact, verify_counting_lemma,
                       zero_mass_bounds_check)

SIGN_TABLE_MAX_N = 12

# least accepted value of each integer option that has one
OPTION_MINIMA = {"d": 1, "trials": 1, "jobs": 1, "restarts": 1, "seed": 0,
                 "node_budget": 1}


def rat(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


class _Tally:
    """Per-check pass/fail counters plus the violation list."""

    def __init__(self):
        self.counts = {}
        self.violations = []

    def hit(self, name: str, ok: bool, detail=None):
        passed, failed = self.counts.get(name, (0, 0))
        if ok:
            self.counts[name] = (passed + 1, failed)
        else:
            self.counts[name] = (passed, failed + 1)
            entry = {"check": name}
            if detail:
                entry.update(detail)
            self.violations.append(entry)

    def per_check(self):
        return [{"name": name, "pass": p, "fail": f}
                for name, (p, f) in sorted(self.counts.items())]

    @property
    def clean(self) -> bool:
        return not self.violations


def _report(command: str, config: dict, tally: _Tally, results) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "perCheck": tally.per_check(),
        "violations": tally.violations,
        "results": results,
    }


def _emit(report: dict, output: str = None):
    text = json.dumps(report, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------- gauss

def cmd_gauss(args) -> int:
    ctx = make_field(args.p, args.ell)
    tally = _Tally()
    direct = gauss_direct(ctx, 1)
    closed = gauss_closed(ctx)
    residual = abs(direct - closed)
    tol = 1e-9 * ctx.q**0.5
    tally.hit("closed_form", residual < tol, {"residual": residual})
    signs = []
    for n in range(2, SIGN_TABLE_MAX_N + 1, 2):
        pair = gauss_signs(n, ctx)
        numeric = direct**n / ctx.q**(n / 2)
        res_sigma = abs(numeric - pair.sigma)
        res_tau = abs(ctx.eta(ctx.neg(1)) * numeric - pair.tau)
        tally.hit("sign_table", res_sigma < tol and res_tau < tol,
                  {"n": n, "residual": max(res_sigma, res_tau)})
        signs.append({"n": n, "sigma": pair.sigma, "tau": pair.tau,
                      "residual_sigma": res_sigma, "residual_tau": res_tau})
    results = {
        "q": ctx.q,
        "g1_direct": {"re": direct.real, "im": direct.imag},
        "g1_closed": {"re": closed.real, "im": closed.imag},
        "residual": residual,
        "signs": signs,
    }
    config = {"p": args.p, "ell": args.ell}
    _emit(_report("gauss", config, tally, results), args.output)
    return 0 if tally.clean else 2


# ------------------------------------------------------- per-set checks

def _check_set(A: PointSet, check):
    """Run every per-set check on A, reporting each through
    check(name, ok, detail); shared by verify's workers and analyze.

    Returns (counts, masses, zero_mass, bound_rows).  masses is None when
    q^d > DFT_CAP or a spectral guard raised before they were computed;
    zero_mass is None unless there are masses and d is odd and >= 3."""
    ctx, d, n = A.ctx, A.d, len(A)
    q = ctx.q
    counts = count_pairs(A)
    masses = zm = None
    if q**d <= DFT_CAP:
        try:
            masses = spectral_masses_exact(A, kernels_for(ctx, d))
            predicted = predict_from_spectrum(A, masses)
        except ArithmeticError as exc:
            # a guard inside the spectral pipeline saw a broken identity
            check("oracle_equivalence", False, {"error": str(exc)})
        else:
            check("oracle_equivalence", predicted == counts,
                  {"counted": [counts.sq, counts.zr, counts.nonsq],
                   "predicted": [predicted.sq, predicted.zr,
                                 predicted.nonsq]})
    if (n * q)**2 <= PAIR_CAP:
        incidences, expected = cone_lift_check(A, counts)
        check("cone_lift", incidences == expected,
              {"incidences": incidences, "expected": expected})
    if masses is not None:
        check("plancherel", masses.total() == Fraction(n, q**d),
              {"total": rat(masses.total())})
        check("mass_lower_bound", masses.zero >= Fraction(n * n, q**(2 * d)),
              {"zero": rat(masses.zero)})
        if d % 2 == 1 and d >= 3:
            zm = zero_mass_bounds_check(A, masses)
            check("zero_mass_refined", zm.holds, {"zero": rat(zm.mass_zero)})
    rows = []
    for rep in check_all(A, counts):
        rows.append({
            "name": rep.name, "case": rep.case.case_id,
            "branch": rep.branch, "lhs": rat(rep.lhs), "rhs": rat(rep.rhs),
            "holds": rep.holds, "slack": rat(rep.slack)})
        check(f"bound_{rep.name}", rep.holds,
              {"lhs": rat(rep.lhs), "rhs": rat(rep.rhs)})
    if q**d <= MASTER_CAP:
        residual = sq_zr_fourier_residual(A, counts)
        check("direct_identity", residual < 1e-6 * n * n,
              {"residual": residual})
    return counts, masses, zm, rows


# --------------------------------------------------------------- verify

def _check_one_set(task) -> dict:
    """The per-set checks of one verify task; run by workers too."""
    p, ell, d, seed, pts = task
    A = PointSet(make_field(p, ell), d, pts)
    checks = []
    _, _, _, rows = _check_set(
        A, lambda name, ok, detail: checks.append((name, bool(ok), detail)))
    return {"seed": seed, "size": len(A), "checks": checks,
            "bound_rows": rows}


def _run_formula_checks(ctx, d: int, tasks, tally: "_Tally", cell: dict):
    """Once-per-cell checks of the closed-form transforms and the
    counting identity; follows the same tolerances as the sweep."""
    q = ctx.q
    if q**(d + 1) <= MASTER_CAP:
        cone = enumerate_cone(ctx, d + 1)
        chat = dft_indicator(cone)
        worst = float(np.abs(chat - cone_fourier_formula(ctx, d + 1)).max())
        tally.hit("cone_transform", worst < 1e-9, dict(cell, residual=worst))
    if d >= 2 and q**d <= MASTER_CAP:
        sphere = enumerate_sphere_zero(ctx, d)
        shat = dft_indicator(sphere)
        worst = float(np.abs(shat - sphere0_fourier_formula(ctx, d)).max())
        tally.hit("sphere_transform", worst < 1e-9,
                  dict(cell, residual=worst))
        if tasks:
            p_, ell_, _, _, pts = tasks[-1]
            E = PointSet(ctx, d, pts)
            direct, fourier = verify_counting_lemma(E, sphere, shat)
            tally.hit("counting_lemma", abs(direct - fourier) < 1e-6,
                      dict(cell, direct=direct, fourier=fourier))


def cmd_verify(args) -> int:
    ctx = make_field(args.p, args.ell)
    q, d = ctx.q, args.d
    volume = q**d
    if volume > DFT_CAP:
        raise FqdistError(f"verify needs q^d <= {DFT_CAP}, got {volume}")
    size_max = args.size_max if args.size_max else volume
    if not 1 <= args.size_min <= size_max <= volume:
        raise FqdistError(
            f"bad size range [{args.size_min}, {size_max}] for q^d={volume}")
    rng = np.random.Generator(np.random.Philox(args.seed))
    tasks = []
    for i in range(args.trials):
        size = int(rng.integers(args.size_min, size_max + 1))
        picks = rng.permutation(volume)[:size]
        pts = [tuple(int(c) for c in row)
               for row in unpack_coords(q, d, picks)]
        tasks.append((args.p, args.ell, d, i, pts))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_check_one_set, tasks,
                                     chunksize=max(1, len(tasks) // (4 * args.jobs))))
    else:
        outcomes = [_check_one_set(t) for t in tasks]

    tally = _Tally()
    cell = {"p": args.p, "ell": args.ell, "d": d}
    rows = []
    for out in outcomes:
        for name, ok, detail in out["checks"]:
            info = dict(cell, seed=out["seed"], size=out["size"])
            if detail:
                info.update(detail)
            tally.hit(name, ok, info if not ok else None)
        for row in out["bound_rows"]:
            rows.append(dict(row, seed=out["seed"], size=out["size"]))
    _run_formula_checks(ctx, d, tasks, tally, cell)
    results = {"cell": cell, "sets": len(outcomes), "bound_rows": rows}
    config = {"p": args.p, "ell": args.ell, "d": d, "trials": args.trials,
              "size_min": args.size_min, "size_max": size_max,
              "seed": args.seed, "jobs": args.jobs}
    _emit(_report("verify", config, tally, results), args.output)
    if args.csv:
        fields = ["seed", "size", "name", "case", "branch",
                  "lhs", "rhs", "holds", "slack"]
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields,
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
    return 0 if tally.clean else 2


# -------------------------------------------------------------- analyze

def cmd_analyze(args) -> int:
    A = read_pointset(args.set)
    ctx, d = A.ctx, A.d
    if d < 2:
        # the spectral prediction and the bound clauses need d >= 2
        raise FqdistError(f"analyze needs d >= 2, got d = {d} in {args.set}")
    tally = _Tally()
    counts, masses, zm, rows = _check_set(A, tally.hit)
    results = {
        "set": {"p": ctx.p, "ell": ctx.ell, "d": d,
                "mod": list(ctx.modulus),
                "points": [list(pt) for pt in A]},
        "size": len(A),
        "pair_counts": {"sq": counts.sq, "zr": counts.zr,
                        "nonsq": counts.nonsq},
        "distance_set": sorted(distance_set(A)),
        "is_square_distance_set": counts.nonsq == 0,
    }
    if masses is not None:
        results["masses"] = {"zero": rat(masses.zero),
                             "plus": rat(masses.plus),
                             "minus": rat(masses.minus)}
    results["bounds"] = rows
    if zm is not None:
        results["zero_mass"] = {
            "mass_zero": rat(zm.mass_zero), "lower": rat(zm.lower),
            "upper_plancherel": rat(zm.upper_plancherel),
            "upper_refined": rat(zm.upper_refined)}
    config = {"set": args.set}
    _emit(_report("analyze", config, tally, results), args.output)
    return 0 if tally.clean else 2


# -------------------------------------------------------- search-square

def cmd_search_square(args) -> int:
    ctx = make_field(args.p, args.ell)
    d = args.d
    tally = _Tally()
    bound = square_set_size_bound(d, ctx.q)
    results = {"strategy": args.strategy, "bound": rat(bound)}
    if args.strategy == "greedy":
        witness = greedy_square_distance_search(ctx, d, seed=args.seed,
                                                restarts=args.restarts)
    else:
        found = exhaustive_square_distance_max(ctx, d,
                                               node_budget=args.node_budget)
        witness = found.witness
        if len(witness) == 0:
            raise FqdistError(f"--node-budget {args.node_budget} ran out "
                              f"before the search placed a point")
        results["exact"] = found.exact
        results["nodes"] = found.nodes
    results["size"] = len(witness)
    results["witness"] = [list(pt) for pt in witness]
    tally.hit("witness_is_square_set", is_square_distance_set(witness))
    tally.hit("within_size_bound", Fraction(len(witness)) <= bound,
              {"size": len(witness), "bound": rat(bound)})
    if args.witness_out:
        write_pointset(witness, args.witness_out)
        results["witness_file"] = args.witness_out
    config = {"p": args.p, "ell": args.ell, "d": d,
              "strategy": args.strategy, "seed": args.seed,
              "restarts": args.restarts, "node_budget": args.node_budget}
    _emit(_report("search-square", config, tally, results), args.output)
    return 0 if tally.clean else 2


# ------------------------------------------------------------- coverage

def cmd_coverage(args) -> int:
    ctx = make_field(args.p, args.ell)
    q, d = ctx.q, args.d
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError:
        raise FqdistError(f"--seeds must be comma-separated integers, "
                          f"got {args.seeds!r}") from None
    if not seeds:
        raise FqdistError("no seeds given")
    if min(seeds) < 0:
        raise FqdistError(f"--seeds must be non-negative, got {min(seeds)}")
    # |A| >= 4 q^((d+1)/2), compared as n^2 >= 16 q^(d+1) to stay exact;
    # a set below it would be reported with nothing checked
    bound = 16 * q**(d + 1)
    least = math.isqrt(bound - 1) + 1
    if args.size < least:
        raise FqdistError(f"--size {args.size} is below {least}, the least "
                          f"size n with n^2 >= 16 q^(d+1) = {bound}")
    tally = _Tally()
    per_seed = []
    for seed in seeds:
        A = generate(ctx, d, GenSpec(kind="random", size=args.size,
                                     seed=seed))
        n = len(A)
        distances = distance_set(A)
        full = len(distances) == q
        per_seed.append({"seed": seed, "size": n,
                         "distinct_distances": len(distances),
                         "coverage": len(distances) / q,
                         "hypothesis_met": n * n >= bound})
        tally.hit("full_coverage", full,
                  {"seed": seed, "size": n,
                   "distinct_distances": len(distances)})
    results = {"per_seed": per_seed}
    config = {"p": args.p, "ell": args.ell, "d": d, "size": args.size,
              "seeds": seeds}
    _emit(_report("coverage", config, tally, results), args.output)
    return 0 if tally.clean else 2


# ----------------------------------------------------------- the parser

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_field_args(sub, with_d=True):
    sub.add_argument("--p", type=int, required=True,
                     help="field characteristic (odd prime)")
    sub.add_argument("--ell", type=int, default=1,
                     help="extension degree (default 1)")
    if with_d:
        sub.add_argument("--d", type=int, required=True,
                         help="ambient dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fqdist",
                     description="exact pair-distance statistics over F_q^d")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gauss", parents=[], help="Gauss sum check")
    _add_field_args(sub, with_d=False)
    sub.add_argument("--output", help="write the JSON report here")
    sub.set_defaults(func=cmd_gauss)

    sub = subs.add_parser("verify", help="randomized identity sweep")
    _add_field_args(sub)
    sub.add_argument("--trials", type=int, default=200)
    sub.add_argument("--size-min", type=int, default=1)
    sub.add_argument("--size-max", type=int, default=0,
                     help="0 means the whole space")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--jobs", type=int, default=1,
                     help="parallel workers (results merged in seed order)")
    sub.add_argument("--output", help="write the JSON report here")
    sub.add_argument("--csv", help="write per-set bound rows as CSV")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("analyze", help="deep dive on one set file")
    sub.add_argument("--set", required=True, help="point-set file")
    sub.add_argument("--output", help="write the JSON report here")
    sub.set_defaults(func=cmd_analyze)

    sub = subs.add_parser("search-square",
                          help="search for large square-distance sets")
    _add_field_args(sub)
    sub.add_argument("--strategy", choices=("greedy", "exhaustive"),
                     default="greedy")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--restarts", type=int, default=20)
    sub.add_argument("--node-budget", type=int, default=10**8)
    sub.add_argument("--witness-out", help="write the witness set here")
    sub.add_argument("--output", help="write the JSON report here")
    sub.set_defaults(func=cmd_search_square)

    sub = subs.add_parser("coverage", help="distance-set coverage check")
    _add_field_args(sub)
    sub.add_argument("--size", type=int, required=True)
    sub.add_argument("--seeds", default="0,1,2,3,4",
                     help="comma-separated seed list")
    sub.add_argument("--output", help="write the JSON report here")
    sub.set_defaults(func=cmd_coverage)
    return parser


def _check_minima(args):
    for name, least in OPTION_MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = name.replace("_", "-")
            raise FqdistError(f"--{flag} must be at least {least}, "
                              f"got {value}")


def _check_outputs(args, created):
    """Open every output target before the work starts, so a path that
    cannot be written fails at once, before any report is printed.
    Append mode creates a missing file and leaves an existing one (which
    may be the input) as it is until the command writes it.  Each file
    this creates is appended to `created`."""
    for name in ("output", "csv", "witness_out"):
        path = getattr(args, name, None)
        if path:
            new = not os.path.exists(path)
            open(path, "a").close()
            if new:
                created.append(path)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    created = []
    try:
        _check_minima(args)
        _check_outputs(args, created)
        return args.func(args)
    except (FqdistError, OSError) as exc:
        # a failed command leaves no empty file behind
        for path in created:
            if os.path.isfile(path) and os.path.getsize(path) == 0:
                os.remove(path)
        print(f"fqdist: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

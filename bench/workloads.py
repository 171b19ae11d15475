"""The benchmark's workloads: the CLI commands each one runs for a seed,
the cells its set-up probe builds, the work its reports describe, and
the checks a report must pass beyond the program's own.

Why these four (see README.md for the full rationale):

verify-dense   F_7^3, sets of 175-185 of 343 points: the per-set
               pipeline at moderate n, dominated by the O((n q)^2) cone
               lift.  The narrow size window keeps the work per seed
               steady.
verify-ext     F_9^3 (ell = 2), same window: the only workload on the
               q x q pair-table arithmetic path for ell > 1.
verify-sparse  F_43^3, sets of 8-16 points: q^d = 79,507 sits just under
               the 10^5 cap, so the per-cell transform, counting-lemma
               and direct-identity checks run and per-cell work (DFT,
               kernel build, closed forms) dominates.
explore        an exhaustive square-set search on F_7^3 at a fixed node
               budget, then distance-set coverage of five 1156-point sets
               in F_17^3: the generators search and distance sets, with
               no spectral work and one pair count (the witness check).
"""

from dataclasses import dataclass
from typing import Optional

MASTER_CAP = 10**5  # fqdist.pairs.MASTER_CAP: gate of the per-cell checks

SEARCH = {"p": 7, "d": 3, "node_budget": 150_000}
COVERAGE = {"p": 17, "d": 3, "size": 1156, "seeds_per_run": 5}

PER_SET_CHECKS = ("oracle_equivalence", "cone_lift", "plancherel",
                  "mass_lower_bound", "zero_mass_refined",
                  "bound_sq_plus_zr", "bound_sq_odd_dim", "direct_identity")


@dataclass(frozen=True)
class VerifyCell:
    p: int
    ell: int
    d: int
    trials: int
    size_min: int
    size_max: int

    @property
    def q(self):
        return self.p ** self.ell

    def per_cell_checks(self):
        checks = ["sphere_transform", "counting_lemma"]
        if self.q ** (self.d + 1) <= MASTER_CAP:
            checks.append("cone_transform")
        return checks


@dataclass(frozen=True)
class Workload:
    name: str
    verify: Optional[VerifyCell]
    # (p, ell, d, build kernels) for each cell the set-up probe builds
    setup_cells: tuple


WORKLOADS = {w.name: w for w in (
    Workload("verify-dense", VerifyCell(7, 1, 3, 12, 175, 185),
             ((7, 1, 3, 1),)),
    Workload("verify-ext", VerifyCell(3, 2, 3, 8, 175, 185),
             ((3, 2, 3, 1),)),
    Workload("verify-sparse", VerifyCell(43, 1, 3, 5, 8, 16),
             ((43, 1, 3, 1),)),
    # explore builds no kernels: neither of its commands uses them
    Workload("explore", None, ((SEARCH["p"], 1, SEARCH["d"], 0),
                               (COVERAGE["p"], 1, COVERAGE["d"], 0))),
)}


def coverage_seeds(seed):
    k = COVERAGE["seeds_per_run"]
    return [seed * k + i for i in range(k)]


def commands(w, seed):
    """fqdist CLI argument lists, run in order, for one seed."""
    c = w.verify
    if c is not None:
        return [["verify", "--p", str(c.p), "--ell", str(c.ell),
                 "--d", str(c.d), "--trials", str(c.trials),
                 "--size-min", str(c.size_min),
                 "--size-max", str(c.size_max), "--seed", str(seed)]]
    return [["search-square", "--p", str(SEARCH["p"]), "--d", str(SEARCH["d"]),
             "--strategy", "exhaustive",
             "--node-budget", str(SEARCH["node_budget"]), "--seed", str(seed)],
            ["coverage", "--p", str(COVERAGE["p"]), "--d", str(COVERAGE["d"]),
             "--size", str(COVERAGE["size"]),
             "--seeds", ",".join(str(s) for s in coverage_seeds(seed))]]


def _set_sizes(report):
    """Sizes of the sets a verify report checked, in seed order."""
    sizes = {}
    for row in report["results"]["bound_rows"]:
        sizes[row["seed"]] = row["size"]
    return [sizes[s] for s in sorted(sizes)]


def sets_checked(w, reports):
    """Point sets whose checks the reports cover: verify's trials; for
    explore, the coverage sets plus the search witness."""
    if w.verify is not None:
        return reports[0]["results"]["sets"]
    return len(reports[1]["results"]["per_seed"]) + 1


def work_counts(w, reports):
    """Work the reports describe, computed from their set sizes."""
    c = w.verify
    if c is not None:
        sizes = _set_sizes(reports[0])
        sum_n2 = sum(n * n for n in sizes)
        return {"sets": len(sizes), "sum_n": sum(sizes), "sum_n2": sum_n2,
                "cone_lift_pairs": c.q ** 2 * sum_n2}
    search, coverage = (r["results"] for r in reports)
    return {"search_nodes": search["nodes"],
            "witness_size": search["size"],
            "coverage_pairs": sum(s["size"] ** 2
                                  for s in coverage["per_seed"])}


def _tallies(report):
    return {c["name"]: (c["pass"], c["fail"]) for c in report["perCheck"]}


def _require(tallies, name, passes, problems):
    if tallies.get(name) != (passes, 0):
        problems.append(f"check {name}: expected {passes} passes and no "
                        f"failure, got {tallies.get(name)}")


def _square_distance_set(points, p):
    squares = {x * x % p for x in range(p)}
    return all(sum((a - b) ** 2 for a, b in zip(x, y)) % p in squares
               for x in points for y in points)


def check_reports(w, seed, reports):
    """Problems with the reports beyond the program's own verdicts: a
    check that silently did not run, a wrong echo of the inputs, or (for
    the search) a witness that is not a square-distance set."""
    problems = []
    c = w.verify
    if c is not None:
        report = reports[0]
        tallies = _tallies(report)
        if report["results"]["sets"] != c.trials:
            problems.append(f"{report['results']['sets']} sets checked, "
                            f"expected {c.trials}")
        for name in PER_SET_CHECKS:
            _require(tallies, name, c.trials, problems)
        for name in c.per_cell_checks():
            _require(tallies, name, 1, problems)
        sizes = _set_sizes(report)
        if not all(c.size_min <= n <= c.size_max for n in sizes):
            problems.append(f"set sizes {sizes} outside the window")
        return problems
    search, coverage = reports
    tallies = _tallies(search)
    _require(tallies, "witness_is_square_set", 1, problems)
    _require(tallies, "within_size_bound", 1, problems)
    witness = search["results"]["witness"]
    if not witness or not _square_distance_set(witness, SEARCH["p"]):
        problems.append("search witness is not a square-distance set")
    if search["results"]["nodes"] < 1:
        problems.append("search expanded no node")
    seeds = coverage_seeds(seed)
    per_seed = coverage["results"]["per_seed"]
    if [s["seed"] for s in per_seed] != seeds:
        problems.append(f"coverage ran seeds {[s['seed'] for s in per_seed]}"
                        f", expected {seeds}")
    if not all(s["size"] == COVERAGE["size"] and s["hypothesis_met"]
               for s in per_seed):
        problems.append("a coverage set has the wrong size")
    _require(_tallies(coverage), "full_coverage", len(seeds), problems)
    return problems

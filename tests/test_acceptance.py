"""The eight acceptance criteria, one test per criterion.

Each test prints a single `criterion N (...): PASS/FAIL [Ns]` line straight
to the terminal (bypassing capture) so a plain pytest run shows the
verdicts at a glance.  Stated runtime budgets are asserted as part of the
criterion.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from fqdist import (GenSpec, PointSet, bound_sq_even_dim, bound_sq_odd_dim,
                    bound_sq_plus_zr, check_all, cone_fourier_formula,
                    cone_lift_check, count_pairs, dft_indicator,
                    enumerate_cone, enumerate_sphere_zero,
                    exhaustive_square_distance_max, gauss_closed,
                    gauss_direct, gauss_signs, generate,
                    greedy_square_distance_search, is_square_distance_set,
                    kernels_for, make_field, predict_from_spectrum,
                    spectral_masses_exact, sphere0_fourier_formula,
                    square_set_size_bound, zero_mass_bounds_check)
from fqdist.cli import main as cli_main
from fqdist.field import _is_prime
from fqdist.geometry import unpack_coords
from test_characters import completing_square_check

SWEEP_CELLS = [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (4, 3), (5, 3)]
SETS_PER_CELL = 200


class _Verdict:
    """Context manager that prints the one-line verdict for a criterion."""

    def __init__(self, capfd, num, label, budget=None):
        self.capfd = capfd
        self.num = num
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        secs = time.perf_counter() - self.t0
        over = self.budget is not None and secs > self.budget
        ok = exc_type is None and not over
        with self.capfd.disabled():
            print(f"criterion {self.num} ({self.label}): "
                  f"{'PASS' if ok else 'FAIL'} [{secs:.1f}s]")
        if exc_type is None and over:
            pytest.fail(f"criterion {self.num} took {secs:.1f}s, "
                        f"budget {self.budget}s")
        return False


@pytest.fixture(scope="module")
def sweep():
    """The flagship sweep: 200 seeded random sets per cell, with counts
    and exact masses precomputed once and shared by criteria 4-6."""
    records = []
    for d, q in SWEEP_CELLS:
        ctx = make_field(q)
        ker = kernels_for(ctx, d)
        volume = q**d
        rng = np.random.Generator(np.random.Philox(1000 * d + q))
        sizes = [1, volume]
        sizes += [int(s) for s in
                  rng.integers(1, volume + 1, SETS_PER_CELL - 2)]
        for size in sizes:
            picks = rng.permutation(volume)[:size]
            A = PointSet(ctx, d, map(tuple, unpack_coords(q, d, picks)))
            records.append({"cell": (d, q), "A": A,
                            "counts": count_pairs(A),
                            "masses": spectral_masses_exact(A, ker)})
    return records


def _odd_prime_powers(limit):
    out = []
    for p in range(3, limit + 1, 2):
        if not _is_prime(p):
            continue
        q, ell = p, 1
        while q <= limit:
            out.append((p, ell))
            q *= p
            ell += 1
    return out


def test_criterion_1_gauss_closed_form(capfd):
    label = "Gauss sum closed form and sign table, all odd q <= 169"
    with _Verdict(capfd, 1, label, budget=10):
        cells = _odd_prime_powers(169)
        assert len(cells) == 46  # 38 odd primes plus 8 proper powers
        for p, ell in cells:
            ctx = make_field(p, ell)
            direct = gauss_direct(ctx, 1)
            assert abs(direct - gauss_closed(ctx)) < 1e-9 * ctx.q**0.5
            for n in range(2, 13, 2):
                pair = gauss_signs(n, ctx)
                scale = ctx.q**(n // 2)
                assert abs(direct**n - pair.sigma * scale) < 1e-6 * scale
                assert pair.tau == ctx.eta(ctx.neg(1)) * pair.sigma


def test_criterion_2_completing_the_square(capfd):
    label = "completing-the-square identity, exhaustive q in {3,5,7,9,13}"
    with _Verdict(capfd, 2, label):
        for p, ell in ((3, 1), (5, 1), (7, 1), (3, 2), (13, 1)):
            ctx = make_field(p, ell)
            tol = 1e-9 * ctx.q**0.5
            for a in range(1, ctx.q):
                for b in range(ctx.q):
                    assert completing_square_check(ctx, a, b) < tol, \
                        (ctx.q, a, b)


def test_criterion_3_transform_closed_forms(capfd):
    label = "cone and zero-sphere Fourier transforms match the DFT"
    with _Verdict(capfd, 3, label, budget=60):
        for n in (2, 3, 4, 5):
            for q in (3, 5, 7):
                ctx = make_field(q)
                chat = dft_indicator(enumerate_cone(ctx, n))
                worst = np.abs(chat - cone_fourier_formula(ctx, n)).max()
                assert worst < 1e-9, ("cone", n, q, worst)
        for d, q in [(2, 3), (2, 5), (2, 7), (3, 3), (3, 5), (3, 7),
                     (4, 3), (4, 5), (4, 7), (5, 3)]:
            ctx = make_field(q)
            shat = dft_indicator(enumerate_sphere_zero(ctx, d))
            worst = np.abs(shat - sphere0_fourier_formula(ctx, d)).max()
            assert worst < 1e-9, ("sphere", d, q, worst)


def test_criterion_4_flagship_oracle_equivalence(capfd, sweep):
    label = "spectral prediction equals brute force, 200 sets x 7 cells"
    with _Verdict(capfd, 4, label, budget=300):
        assert len(sweep) == SETS_PER_CELL * len(SWEEP_CELLS)
        for rec in sweep:
            A, counts = rec["A"], rec["counts"]
            predicted = predict_from_spectrum(A, rec["masses"])
            assert predicted == counts, (rec["cell"], len(A))
            incidences, expected = cone_lift_check(A, counts)
            assert incidences == expected, (rec["cell"], len(A))
            assert expected == A.ctx.q * (2 * counts.sq + counts.zr)


def test_criterion_5_plancherel_and_mass_invariants(capfd, sweep):
    label = "exact mass budget, positivity, zero-mass bounds"
    with _Verdict(capfd, 5, label):
        for rec in sweep:
            d, q = rec["cell"]
            A, m = rec["A"], rec["masses"]
            n = len(A)
            assert m.total() == Fraction(n, q**d)
            assert min(m.zero, m.plus, m.minus) >= 0
            assert m.zero >= Fraction(n * n, q**(2 * d))
            if d % 2 == 1 and d >= 3:
                assert zero_mass_bounds_check(A, m).holds, (rec["cell"], n)


def test_criterion_6_bound_soundness_and_equalities(capfd, sweep):
    label = "every exact bound holds; full spaces attain equality"
    with _Verdict(capfd, 6, label):
        for rec in sweep:
            for rep in check_all(rec["A"], rec["counts"]):
                assert rep.holds, (rec["cell"], len(rec["A"]), rep)
        for d, q in SWEEP_CELLS:
            ctx = make_field(q)
            e1 = (1,) + (0,) * (d - 1)
            structured = [
                generate(ctx, d, GenSpec(kind="full_space")),
                generate(ctx, d, GenSpec(kind="line", direction=(1,) * d)),
                generate(ctx, d, GenSpec(kind="subspace", basis=(e1,))),
                generate(ctx, d, GenSpec(kind="sphere_slice", radius=0)),
            ]
            for A in structured:
                for rep in check_all(A, count_pairs(A)):
                    assert rep.holds, (d, q, len(A), rep)
        # equality cases, re-derived by the brute-force oracle
        for d, q, total, sq in ((2, 3, 45, 36), (2, 5, 425, 200),
                                (3, 3, 405, 162), (3, 5, 10625, 7500)):
            A = generate(make_field(q), d, GenSpec(kind="full_space"))
            counts = count_pairs(A)
            assert counts.sq + counts.zr == total
            assert bound_sq_plus_zr(d, q, len(A)) == total
            if d % 2:
                assert bound_sq_odd_dim(d, q, len(A))[0] == sq == counts.sq
            else:
                assert bound_sq_even_dim(d, q, len(A))[0] == sq == counts.sq


def test_criterion_7_square_set_searches(capfd):
    label = "searches attain the size bound and never exceed it"
    with _Verdict(capfd, 7, label, budget=120):
        exact = exhaustive_square_distance_max(make_field(3), 2)
        assert exact.exact
        assert exact.size == 3 == square_set_size_bound(2, 3)
        witness = greedy_square_distance_search(make_field(5), 2, seed=0)
        assert len(witness) == 5 == square_set_size_bound(2, 5)
        assert is_square_distance_set(witness)
        confirm = exhaustive_square_distance_max(make_field(5), 2)
        assert confirm.exact and confirm.size == 5
        for d, q in SWEEP_CELLS:
            ctx = make_field(q)
            found = greedy_square_distance_search(ctx, d, seed=1,
                                                  restarts=5)
            assert is_square_distance_set(found)
            assert len(found) <= square_set_size_bound(d, q), (d, q)


def test_criterion_8_distance_coverage_desk_check(capfd, tmp_path):
    label = "five size-1156 sets in F_17^3 cover every distance"
    with _Verdict(capfd, 8, label, budget=60):
        out = tmp_path / "coverage.json"
        code = cli_main(["coverage", "--p", "17", "--d", "3",
                         "--size", "1156", "--seeds", "0,1,2,3,4",
                         "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        rows = report["results"]["per_seed"]
        assert len(rows) == 5
        assert all(row["hypothesis_met"] for row in rows)
        assert all(row["distinct_distances"] == 17 for row in rows)
        assert all(row["coverage"] == 1.0 for row in rows)

"""Pair statistics: brute-force counting vs the exact spectral prediction."""

import numpy as np
import pytest

import fqdist.geometry as geometry
import fqdist.pairs as pairs
from fqdist import (FieldCtx, PointSet, cone_fourier_formula,
                    cone_lift_check, count_pairs, dft_indicator,
                    distance_set, exhaustive_square_distance_max,
                    greedy_square_distance_search, kernels_for, make_field,
                    norm, predict_from_spectrum, space_coords,
                    spectral_masses_exact, sphere0_fourier_formula,
                    sq_zr_fourier_residual, write_pointset)
from fqdist.cli import main
from fqdist.errors import (EmptySetError, EnumerationTooLargeError,
                           TooManyPairsError, UnsupportedDimensionError)
from fqdist.field import PAIR_TABLE_CAP
from fqdist.geometry import ENUMERATION_CAP, unpack_coords

# (p, ell, d) -> (sq, zr, nonsq) for A = the whole space, re-derived by an
# independent brute force before freezing
FULL_SPACE_COUNTS = {
    (3, 1, 2): (36, 9, 36),
    (3, 1, 3): (162, 243, 324),
    (5, 1, 2): (200, 225, 200),
    (5, 1, 3): (7500, 3125, 5000),
    (7, 1, 2): (1176, 49, 1176),
    (3, 2, 2): (2592, 1377, 2592),
}


def full_space(p, ell, d):
    ctx = make_field(p, ell)
    return PointSet(ctx, d, map(tuple, space_coords(ctx, d)))


def random_set(ctx, d, size, seed):
    picks = np.random.default_rng(seed).permutation(ctx.q**d)[:size]
    return PointSet(ctx, d, map(tuple, unpack_coords(ctx.q, d, picks)))


@pytest.mark.parametrize("cell", sorted(FULL_SPACE_COUNTS))
def test_full_space_counts_frozen(cell):
    counts = count_pairs(full_space(*cell))
    assert (counts.sq, counts.zr, counts.nonsq) == FULL_SPACE_COUNTS[cell]


def test_count_invariants():
    ctx = make_field(5)
    A = random_set(ctx, 2, 11, seed=2)
    c = count_pairs(A)
    n = len(A)
    assert c.total() == n * n
    assert c.zr >= n          # the diagonal always lands in zr
    assert c.sq % 2 == 0      # off-diagonal pairs come in mirror twos
    assert (c.zr - n) % 2 == 0
    assert c.nonsq % 2 == 0
    assert count_pairs(A.translate((4, 1))) == c


def test_empty_set_rejected():
    with pytest.raises(EmptySetError):
        count_pairs(PointSet(make_field(3), 2, []))


@pytest.mark.parametrize("p,ell,d", [(3, 1, 2), (5, 1, 2), (7, 1, 2),
                                     (3, 2, 2), (3, 1, 3), (5, 1, 3),
                                     (3, 1, 4), (3, 1, 5)])
def test_spectral_prediction_equals_count(p, ell, d):
    ctx = make_field(p, ell)
    ker = kernels_for(ctx, d)
    volume = ctx.q**d
    rng = np.random.default_rng(1000 * p + 100 * ell + d)
    sizes = {1, volume} | {int(s) for s in rng.integers(1, volume + 1, 8)}
    for size in sorted(sizes):
        A = random_set(ctx, d, size, seed=size)
        predicted = predict_from_spectrum(A, spectral_masses_exact(A, ker))
        assert predicted == count_pairs(A)


def brute_pair_counts(A):
    """Pair counts from scalar field operations alone."""
    ctx = A.ctx
    sq = zr = 0
    for x in A:
        for y in A:
            eta = ctx.eta(norm(ctx, [ctx.sub(a, b) for a, b in zip(x, y)]))
            sq += eta == 1
            zr += eta == 0
    n = len(A)
    return pairs.PairCounts(sq=sq, zr=zr, nonsq=n * n - sq - zr)


def brute_cone_incidences(A):
    """Ordered pairs of E = A x F_q whose difference lies on the cone,
    counted naively."""
    ctx = A.ctx
    E = [pt + (s,) for pt in A for s in range(ctx.q)]
    hits = 0
    for x in E:
        for y in E:
            diff = tuple(ctx.sub(a, b) for a, b in zip(x, y))
            hits += norm(ctx, diff[:-1]) == ctx.mul(diff[-1], diff[-1])
    return hits


def pair_table_cone_incidences(A):
    """The cone lift's incidences through the q x q pair tables: each
    lifted difference, its squares and their sum by table gathers, in
    row blocks of at most 2^21 lifted differences.  This was the ell > 1
    branch of cone_lift_check before it moved to F_p digits."""
    ctx, d, q = A.ctx, A.d, A.ctx.q
    n_lift = len(A) * q
    lifted = np.empty((n_lift, d + 1), dtype=np.int64)
    lifted[:, :d] = np.repeat(A.coords, q, axis=0)
    lifted[:, d] = np.tile(np.arange(q, dtype=np.int64), len(A))
    add_tab, sub_tab, mul_tab = ctx.pair_tables
    incidences = 0
    chunk = max(1, (1 << 21) // n_lift)
    for s in range(0, n_lift, chunk):
        diffs = sub_tab[lifted[s:s + chunk, None, :], lifted[None, :, :]]
        sqs = mul_tab[diffs, diffs]
        acc = sqs[:, :, 0]
        for i in range(1, d):
            acc = add_tab[acc, sqs[:, :, i]]
        incidences += int((sub_tab[acc, sqs[:, :, d]] == 0).sum())
    return incidences


# random sets over extension fields, one point, the full space F_9^2,
# and an ell = 1 cell: (p, ell, d, size, seed)
CONE_ORACLE_CASES = [
    (3, 2, 2, 20, 1), (3, 2, 2, 57, 2), (3, 2, 3, 30, 3),
    (3, 2, 3, 110, 4), (5, 2, 2, 40, 5), (3, 3, 2, 30, 6),
    (3, 2, 3, 1, 7), (3, 2, 2, 81, 8), (7, 1, 3, 40, 9),
    (3, 6, 2, 2, 10),   # q^(d+1) = 729^3: over the cap, past int32
]


@pytest.mark.parametrize("p,ell,d,size,seed", CONE_ORACLE_CASES)
@pytest.mark.parametrize("table", [True, False], ids=["table", "lookup"])
def test_cone_lift_matches_pair_table_oracle(p, ell, d, size, seed, table,
                                             monkeypatch):
    ctx = make_field(p, ell)
    A = random_set(ctx, d, size, seed)
    assert len(A) == size
    counts = count_pairs(A)
    if not table:
        # q^(d+1) over the cap: the digit path compares the prefix norm
        # with the square of the last coordinate instead of one table
        monkeypatch.setattr(pairs, "ENUMERATION_CAP", ctx.q**d)
    incidences, expected = cone_lift_check(A, counts)
    assert incidences == pair_table_cone_incidences(A)
    assert incidences == expected


def test_extension_kernels_do_not_read_pair_tables(monkeypatch, tmp_path,
                                                   capsys):
    ctx = make_field(3, 2)
    A = random_set(ctx, 3, 60, seed=11)
    B = random_set(ctx, 2, 30, seed=12)
    counts = count_pairs(A)
    want_incidences = pair_table_cone_incidences(A)

    def results():
        """(arrays, other values) of every vector operation on F_9^2
        and F_9^3."""
        ker = kernels_for(ctx, 3)
        arrays = [ker.zero, ker.plus, ker.minus, dft_indicator(A),
                  sphere0_fourier_formula(ctx, 3),
                  cone_fourier_formula(ctx, 3)]
        values = [count_pairs(A), count_pairs(B), distance_set(A),
                  distance_set(B), ker.origin, spectral_masses_exact(A, ker),
                  sq_zr_fourier_residual(A, count_pairs(A)),
                  greedy_square_distance_search(ctx, 2, seed=3, restarts=4),
                  exhaustive_square_distance_max(ctx, 2)]
        return arrays, values

    want_arrays, want_values = results()

    def refuse(self):
        raise AssertionError("pair tables were read")

    monkeypatch.setattr(FieldCtx, "pair_tables", property(refuse))
    # rebuild the cached norm tables with the tables refused
    monkeypatch.setattr(geometry, "_NORM_TABLES", {})
    monkeypatch.setattr(geometry, "_CONE_TABLES", {})
    incidences, expected = cone_lift_check(A, counts)
    assert incidences == want_incidences == expected
    got_arrays, got_values = results()
    for got, want in zip(got_arrays, want_arrays):
        assert np.array_equal(got, want)
    assert got_values == want_values
    path = tmp_path / "set.txt"
    write_pointset(B, path)
    field = ["--p", "3", "--ell", "2"]
    for argv in (["verify", *field, "--d", "2", "--trials", "3"],
                 ["analyze", "--set", str(path)],
                 ["search-square", *field, "--d", "2", "--strategy",
                  "greedy"],
                 ["search-square", *field, "--d", "2", "--strategy",
                  "exhaustive"],
                 # 324^2 = 16 * 9^4: the least size that meets coverage's
                 # hypothesis in F_9^3
                 ["coverage", *field, "--d", "3", "--size", "324",
                  "--seeds", "0"]):
        assert main(argv) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("p,ell", [(71, 2), (3, 8)])
def test_extension_fields_above_the_pair_table_cap(p, ell):
    ctx = make_field(p, ell)
    q = ctx.q
    assert q > PAIR_TABLE_CAP
    A = random_set(ctx, 1, 40, seed=p + ell)
    assert count_pairs(A) == brute_pair_counts(A)
    assert distance_set(A) == {ctx.mul(ctx.sub(x, y), ctx.sub(x, y))
                               for (x,) in A for (y,) in A}
    # kernels at d = 1 against the character sums of their definition
    ker = kernels_for(ctx, 1)
    classes = [ctx.eta(ctx.mul(m, m)) for m in range(q)]
    assert ker.origin == tuple(classes.count(sign) for sign in (0, 1, -1))
    for v in (1, p, q - 1, 1 + p**(ell - 1)):
        sums = {0: 0, 1: 0, -1: 0}
        for m, sign in enumerate(classes):
            sums[sign] += ctx.chi_table[ctx.mul(m, v)]
        t = ctx.mul(v, v)
        for sign, table in zip((0, 1, -1), (ker.zero, ker.plus, ker.minus)):
            assert abs(table[t] - sums[sign]) < 1e-6
    non_squares = ctx.eta_table < 1
    for table in (ker.zero, ker.plus, ker.minus):
        assert not table[non_squares].any()


def test_cone_lift_digit_path_cap():
    ctx = make_field(3, 2)
    A = PointSet(ctx, 8, [(0,) * 8, (1,) + (0,) * 7])
    counts = pairs.PairCounts(sq=2, zr=2, nonsq=0)
    with pytest.raises(EnumerationTooLargeError):
        cone_lift_check(A, counts)  # 9^8 prefix norms are over the cap


def test_cone_lift_identity_and_brute_force():
    ctx = make_field(3)
    A = PointSet(ctx, 2, [(0, 0), (1, 2), (2, 2)])
    counts = count_pairs(A)
    incidences, expected = cone_lift_check(A, counts)
    assert incidences == expected
    assert incidences == brute_cone_incidences(A)
    assert expected == ctx.q * (2 * counts.sq + counts.zr)


def test_cone_lift_extension_field():
    ctx = make_field(3, 2)
    B = PointSet(ctx, 2, [(0, 0), (3, 7), (5, 1)])
    incidences, expected = cone_lift_check(B, count_pairs(B))
    assert incidences == expected
    assert incidences == brute_cone_incidences(B)


@pytest.mark.parametrize("p,ell,d", [(3, 1, 2), (5, 1, 2), (3, 2, 2),
                                     (3, 1, 3)])
def test_direct_identity_residual_small(p, ell, d):
    ctx = make_field(p, ell)
    A = random_set(ctx, d, max(2, ctx.q), seed=9)
    assert sq_zr_fourier_residual(A, count_pairs(A)) < 1e-6 * len(A)**2


def test_dimension_one_is_rejected():
    ctx = make_field(3)
    A = PointSet(ctx, 1, [(0,), (1,)])
    masses = spectral_masses_exact(A, kernels_for(ctx, 1))
    with pytest.raises(UnsupportedDimensionError):
        predict_from_spectrum(A, masses)


def test_pair_budget_guard():
    ctx = make_field(3)
    # 31624^2 ordered pairs just tips over the 1e9 budget
    pts = map(tuple, space_coords(ctx, 10)[:31624])
    A = PointSet(ctx, 10, pts)
    with pytest.raises(TooManyPairsError):
        count_pairs(A)


def test_extension_field_enumeration_cap():
    # 9^8 has no packed norm table: the squares of each difference's
    # coordinates are summed one coordinate at a time
    ctx = make_field(3, 2)
    assert ctx.q**8 > ENUMERATION_CAP
    coords = np.random.default_rng(8).integers(0, ctx.q, size=(10, 8))
    A = PointSet(ctx, 8, [(0,) * 8, (1,) + (0,) * 7, *map(tuple, coords)])
    assert count_pairs(A) == brute_pair_counts(A)


def test_direct_identity_cap():
    ctx = make_field(7)
    A = PointSet(ctx, 7, [(0,) * 7, (1,) + (0,) * 6])
    with pytest.raises(EnumerationTooLargeError):
        sq_zr_fourier_residual(A, count_pairs(A))

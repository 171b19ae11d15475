"""Spectral side: DFT, exact integer kernels, masses, closed-form transforms."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fqdist import (PointSet, cone_fourier_formula, dft_indicator,
                    enumerate_cone, enumerate_sphere_zero, kernels_for,
                    make_field, space_coords, spectral_masses_exact,
                    sphere0_fourier_formula, verify_counting_lemma,
                    zero_mass_bounds_check)
from fqdist.errors import EnumerationTooLargeError, WrongParityError
from fqdist.geometry import (_packed_digits, norm_table, pack_weights,
                             unpack_coords)
from fqdist.spectral import (PERIODIC_CAP, KernelTable, _dot_bound,
                             _inner_sum_table, _mod_p_reader, _trace_form)

CELLS = [(3, 1, 2), (5, 1, 2), (3, 2, 2), (3, 1, 3)]


def random_set(ctx, d, size, seed):
    picks = np.random.default_rng(seed).permutation(ctx.q**d)[:size]
    return PointSet(ctx, d, map(tuple, unpack_coords(ctx.q, d, picks)))


def dot_chunks(ctx, rows, cols):
    """Yield (start, dots) where dots[i, j] is the field dot product of
    rows[start + i] with cols[j], as packed element indices: modular
    matmuls for ell = 1, q x q pair-table gathers for ell > 1.  This was
    the kernel build's dot product before it moved to F_p digits."""
    nrows, ncols = rows.shape[0], cols.shape[0]
    chunk = max(1, (1 << 22) // max(ncols, 1))
    if ctx.ell == 1:
        colsT = cols.T
        for s in range(0, nrows, chunk):
            block = rows[s:s + chunk]
            yield s, (block @ colsT) % ctx.p
    else:
        add_tab, _, mul_tab = ctx.pair_tables
        d = rows.shape[1]
        for s in range(0, nrows, chunk):
            block = rows[s:s + chunk]
            acc = mul_tab[block[:, 0][:, None], cols[:, 0][None, :]]
            for i in range(1, d):
                term = mul_tab[block[:, i][:, None], cols[:, i][None, :]]
                acc = add_tab[acc, term]
            yield s, acc


def dot_chunks_dft(A):
    """dft_indicator before the trace form: packed field dot products
    of every frequency with every point from dot_chunks (q x q
    pair-table gathers for ell > 1), read through conj(chi)."""
    ctx, d = A.ctx, A.d
    volume = ctx.q**d
    conj_chi = np.conj(ctx.chi_table)
    out = np.empty(volume, dtype=np.complex128)
    for start, dots in dot_chunks(ctx, space_coords(ctx, d), A.coords):
        out[start:start + dots.shape[0]] = conj_chi[dots].sum(axis=1)
    return out / volume


def reduced_dft(A):
    """dft_indicator before the periodic table: each block of at most
    2^21 terms reduced with `% p` and read through conj(chi) of length p.
    Returns the transform and the largest unreduced dot product seen."""
    ctx, d, p = A.ctx, A.d, A.ctx.p
    volume = ctx.q**d
    form = np.kron(np.eye(d, dtype=np.int64), _trace_form(ctx))
    pts = (_packed_digits(ctx, d, A.packed()) @ form % p).T
    conj_chi = np.conj(np.exp(2j * np.pi * np.arange(p, dtype=np.float64)
                              / p))
    freqs = _packed_digits(ctx, d, np.arange(volume))
    out = np.empty(volume, dtype=np.complex128)
    top = 0
    chunk = max(1, (1 << 21) // max(len(A), 1))
    for start in range(0, volume, chunk):
        dots = freqs[start:start + chunk] @ pts
        top = max(top, int(dots.max(initial=0)))
        out[start:start + chunk] = conj_chi[dots % p].sum(axis=1)
    out /= volume
    return out, top


def masses_numeric(A):
    """(zero, plus, minus) masses via the complex DFT."""
    ctx, d = A.ctx, A.d
    power = np.abs(dft_indicator(A))**2
    etas = ctx.eta_table[norm_table(ctx, d)]
    return (float(power[etas == 0].sum()),
            float(power[etas == 1].sum()),
            float(power[etas == -1].sum()))


def brute_kernels(ctx, d):
    """Character sums of the three norm classes straight from the
    definition; quadratic in the volume, so tiny spaces only."""
    q = ctx.q
    coords = space_coords(ctx, d)
    etas = ctx.eta_table[norm_table(ctx, d)]
    volume = q**d
    out = {0: np.zeros(volume), 1: np.zeros(volume), -1: np.zeros(volume)}
    for vi in range(volume):
        for mi in range(volume):
            dot = 0
            for a, b in zip(coords[mi], coords[vi]):
                dot = ctx.add(dot, ctx.mul(int(a), int(b)))
            out[int(etas[mi])][vi] += ctx.chi_table[dot].real
    return out


def trace_forms(ctx):
    """(ell, ell, ell) array of the Gram matrices T_k[j, l] =
    Tr(X^k * X^j * X^l) on the basis 1, X, ..., X^(ell-1) of F_q over
    F_p, so Tr(X^k * a * b) = digits(a) . T_k . digits(b) mod p.  T_0 is
    the trace form; it is nondegenerate, so z = 0 exactly when
    Tr(X^k * z) = 0 for every k."""
    basis = [ctx.p**j for j in range(ctx.ell)]  # packed index of X^j
    return np.array([[[ctx.trace(ctx.mul(ctx.mul(xk, a), b)) for b in basis]
                      for a in basis] for xk in basis], dtype=np.int64)


def scaling_class_reps(ctx, d):
    """One representative per scaling class of nonzero vectors: the
    vectors whose first nonzero coordinate is 1, as R = (q^d - 1) / (q - 1)
    packed indices.  Those with `free` coordinates after the leading 1
    pack to q^free + (0, ..., q^free - 1)."""
    q = ctx.q
    return np.concatenate([q**free + np.arange(q**free, dtype=np.int64)
                           for free in range(d - 1, -1, -1)])


def enumerated_kernels(ctx, d):
    """kernels_for by enumeration, as it was before the closed forms.

    Takes one nonzero vector per norm value and sums characters against
    it, one scaling class {t * rep : t != 0} of frequencies at a time:
    each class stays inside one norm class and contributes q - 1 when
    rep . v = 0 and -1 otherwise.  O(q^d) time and O(q) memory.
    rep . v = 0 is tested on F_p digits as Tr(X^k * rep . v) = 0 for
    every k < ell, reading the unreduced integer dots through
    `_mod_p_reader`.
    """
    q, p, ell = ctx.q, ctx.p, ctx.ell
    volume = q**d
    ntab = norm_table(ctx, d)
    packed_reps = scaling_class_reps(ctx, d)
    rep_eta = ctx.eta_table[ntab[packed_reps]]
    rep_digits = _packed_digits(ctx, d, packed_reps)
    # the first nonzero packed vector of each norm value that occurs
    first = np.full(q, volume, dtype=np.int64)
    np.minimum.at(first, ntab[1:], np.arange(1, volume, dtype=np.int64))
    norms = np.nonzero(first < volume)[0]
    vec_digits = _packed_digits(ctx, d, first[norms]).T
    eye = np.eye(d, dtype=np.int64)
    # column k * len(norms) + j: Tr(X^k * m . v_j) as a form in m's digits
    forms = np.concatenate([np.kron(eye, t) @ vec_digits % p
                            for t in trace_forms(ctx)], axis=1)
    read_zero = _mod_p_reader(np.arange(p) == 0, _dot_bound(ctx, d))
    signs = (0, 1, -1)
    hits = {sign: np.zeros(len(norms), dtype=np.int64) for sign in signs}
    chunk = max(1, (1 << 22) // forms.shape[1])
    for start in range(0, len(rep_digits), chunk):
        zero = read_zero(rep_digits[start:start + chunk] @ forms)
        zero = zero.reshape(len(zero), ell, len(norms)).all(axis=1)
        etas = rep_eta[start:start + chunk]
        for sign in signs:
            hits[sign] += zero[etas == sign].sum(axis=0)
    tables, sizes = {}, {}
    for sign in signs:
        sizes[sign] = int((rep_eta == sign).sum())
        tables[sign] = np.zeros(q, dtype=np.int64)
        tables[sign][norms] = q * hits[sign] - sizes[sign]
    # the origin frequency has zero norm and contributes chi(0) = 1
    tables[0][norms] += 1
    origin = ((q - 1) * sizes[0] + 1, (q - 1) * sizes[1], (q - 1) * sizes[-1])
    return KernelTable(ctx, d, tables[0], tables[1], tables[-1], origin)


def looped_inner_sums(ctx, n, denom_scale):
    """_inner_sum_table as it was before its closed form: sum over
    s != 0 of eta^n(s) chi(t / (c*s)) for every t, read through the trace
    form in O(q) memory per s."""
    p, q = ctx.p, ctx.q
    c = denom_scale % p
    form = _trace_form(ctx)
    chi = np.exp(2j * np.pi * np.arange(p, dtype=np.float64) / p)
    t_digits = _packed_digits(ctx, 1, np.arange(q))
    out = np.zeros(q, dtype=np.complex128)
    for s in range(1, q):
        coeff = ctx.eta(s) if n % 2 else 1
        u = ctx.inv(ctx.mul(c, s))
        out += coeff * chi[t_digits @ (form @ ctx.digits(u)) % p]
    return out


def dense_kernels(ctx, d):
    """Kernel tables over every packed v, one row of scaling-class dot
    products per representative: O(q^(2d-1)) time and O(q^d) memory."""
    q = ctx.q
    volume = q**d
    packed_reps = scaling_class_reps(ctx, d)
    reps = unpack_coords(q, d, packed_reps)
    rep_eta = ctx.eta_table[norm_table(ctx, d)[packed_reps]]
    cols = space_coords(ctx, d)
    # the origin frequency has zero norm and contributes chi(0) = 1 at every v
    out = {0: np.ones(volume, dtype=np.int64),
           1: np.zeros(volume, dtype=np.int64),
           -1: np.zeros(volume, dtype=np.int64)}
    for start, dots in dot_chunks(ctx, reps, cols):
        hit = dots == 0
        etas = rep_eta[start:start + dots.shape[0]]
        for sign, target in out.items():
            rows = np.nonzero(etas == sign)[0]
            if rows.size:
                target += q * hit[rows].sum(axis=0, dtype=np.int64) - rows.size
    return out


def expand(ker):
    """The norm-indexed tables spread over every packed v, keyed by the
    eta class like dense_kernels and brute_kernels."""
    ntab = norm_table(ker.ctx, ker.d)
    out = {}
    for sign, table, at_origin in zip((0, 1, -1),
                                      (ker.zero, ker.plus, ker.minus),
                                      ker.origin):
        out[sign] = table[ntab]
        out[sign][0] = at_origin
    return out


@pytest.mark.parametrize("p,ell,d", [(3, 1, 2), (3, 1, 3), (3, 2, 2)])
def test_kernels_match_direct_character_sums(p, ell, d):
    got = expand(kernels_for(make_field(p, ell), d))
    want = brute_kernels(make_field(p, ell), d)
    for sign in (0, 1, -1):
        assert np.allclose(got[sign], want[sign], atol=1e-6)


@pytest.mark.parametrize("p,ell,d", [(3, 1, 1), (3, 1, 2), (5, 1, 2),
                                     (3, 2, 2), (3, 1, 3), (7, 1, 3),
                                     (3, 2, 3), (5, 1, 4), (3, 1, 5),
                                     (13, 1, 3), (5, 2, 2), (3, 3, 2),
                                     (257, 1, 2)])
def test_norm_indexed_kernels_equal_dense_oracle(p, ell, d):
    ctx = make_field(p, ell)
    ker = kernels_for(ctx, d)
    for table in (ker.zero, ker.plus, ker.minus):
        assert table.shape == (ctx.q,)
    got, want = expand(ker), dense_kernels(ctx, d)
    for sign in (0, 1, -1):
        assert np.array_equal(got[sign], want[sign])


# fifteen cells from F_3^2 to F_11^4, d = 1 on prime and extension
# fields, and F_11^2, where eta(-1) = -1 leaves the norm 0 to the origin
ENUMERATED_KERNEL_CELLS = [
    (3, 1, 2), (5, 1, 2), (7, 1, 2), (7, 1, 3), (5, 1, 3), (3, 2, 3),
    (5, 1, 4), (3, 1, 5), (43, 1, 3), (3, 3, 2), (5, 2, 2), (3, 1, 7),
    (3, 3, 3), (3, 4, 2), (11, 1, 4),
    (3, 1, 1), (13, 1, 1), (3, 2, 1), (3, 3, 1),
    (11, 1, 2),
]


@pytest.mark.parametrize("p,ell,d", ENUMERATED_KERNEL_CELLS)
def test_closed_form_kernels_equal_the_enumeration(p, ell, d):
    ctx = make_field(p, ell)
    got, want = kernels_for(ctx, d), enumerated_kernels(ctx, d)
    for name in ("zero", "plus", "minus"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == np.int64
    assert got.origin == want.origin
    assert all(type(size) is int for size in got.origin)


@pytest.mark.parametrize("p,ell", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                                   (3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
def test_closed_form_inner_sums_equal_the_loop(p, ell):
    ctx = make_field(p, ell)
    for n in range(1, 7):
        for c in (4, -4, 1):
            got = _inner_sum_table(ctx, n, c)
            assert got.shape == (ctx.q,)
            assert np.abs(got - looped_inner_sums(ctx, n, c)).max() < 1e-12


@pytest.mark.parametrize("p,ell,d", CELLS + [(7, 1, 2), (5, 1, 3)])
def test_kernel_partition_and_symmetry(p, ell, d):
    ctx = make_field(p, ell)
    q = ctx.q
    ker = kernels_for(ctx, d)
    # the three kernels sum to the full character sum q^d * delta_0: the
    # origin values to q^d, and the tables to 0 at every norm a nonzero
    # vector takes
    assert sum(ker.origin) == q**d
    taken = np.unique(norm_table(ctx, d)[1:])
    total = ker.zero + ker.plus + ker.minus
    assert not total[taken].any()
    assert ker.origin[0] == len(enumerate_sphere_zero(ctx, d))
    # each expanded kernel is even: k(-v) = k(v)
    neg = np.array([[ctx.neg(int(c)) for c in row]
                    for row in space_coords(ctx, d)])
    perm = neg @ pack_weights(q, d)
    for arr in expand(ker).values():
        assert np.array_equal(arr, arr[perm])


@pytest.mark.parametrize("p,ell,d", CELLS)
def test_exact_masses_match_numeric_dft(p, ell, d):
    ctx = make_field(p, ell)
    ker = kernels_for(ctx, d)
    volume = ctx.q**d
    rng = np.random.default_rng(11)
    for trial in range(5):
        size = int(rng.integers(1, volume + 1))
        A = random_set(ctx, d, size, seed=100 * trial + 7)
        exact = spectral_masses_exact(A, ker)
        assert exact.total() == Fraction(len(A), volume)
        assert min(exact.zero, exact.plus, exact.minus) >= 0
        numeric = masses_numeric(A)
        for got, want in zip((exact.zero, exact.plus, exact.minus), numeric):
            assert abs(float(got) - want) < 1e-9


# random sets over extension fields and prime fields, sets spanning many
# 2^18-term blocks, one point, the empty set, the full space F_9^2, and
# p = 257 at d = 2, whose dot bound 2 * 256^2 + 1 is past PERIODIC_CAP:
# (p, ell, d, size, seed)
DFT_ORACLE_CASES = [
    (3, 2, 2, 20, 1), (3, 2, 3, 150, 2), (5, 2, 2, 200, 3),
    (3, 3, 2, 300, 4), (3, 2, 3, 1, 5), (3, 2, 2, 81, 6),
    (7, 1, 3, 120, 7), (31, 1, 3, 200, 8), (5, 2, 3, 400, 9),
    (13, 1, 3, 0, 10), (257, 1, 2, 40, 11),
]


@pytest.mark.parametrize("p,ell,d,size,seed", DFT_ORACLE_CASES)
def test_dft_matches_dot_chunks_oracle(p, ell, d, size, seed):
    ctx = make_field(p, ell)
    A = random_set(ctx, d, size, seed)
    got, want = dft_indicator(A), dot_chunks_dft(A)
    assert np.abs(got - want).max(initial=0) < 1e-12
    if ell == 1:
        # the same integer dot products, summed in the same order
        assert np.array_equal(got, want)
    # the same unreduced dots as reduced_dft, read from an equal table
    reduced, top = reduced_dft(A)
    assert top < _dot_bound(ctx, d)
    assert np.array_equal(got, reduced)


def test_dft_reads_large_primes_without_a_periodic_table():
    # d * (p - 1)^2 + 1 is about 10^10 here; a periodic table of that
    # length would need 160 GB
    ctx = make_field(99991)
    A = random_set(ctx, 1, 5, seed=13)
    tracemalloc.start()
    try:
        got = dft_indicator(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.array_equal(got, reduced_dft(A)[0])


@pytest.mark.parametrize("p,bound", [(3, 1), (7, 5), (43, 5293),
                                     (255, PERIODIC_CAP),
                                     (257, PERIODIC_CAP + 1)])
def test_mod_p_reader_reads_the_residue(p, bound):
    table = np.arange(p) * 10 + 1
    read = _mod_p_reader(table, bound)
    dots = np.arange(bound, dtype=np.int64)
    assert np.array_equal(read(dots.copy()), table[dots % p])


@pytest.mark.parametrize("p,ell", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3),
                                   (7, 2)])
def test_trace_form_is_the_trace_of_products(p, ell):
    ctx = make_field(p, ell)
    T = _trace_form(ctx)
    assert T.shape == (ell, ell)
    assert np.array_equal(T, T.T)
    assert np.array_equal(T, trace_forms(ctx)[0])
    rng = np.random.default_rng(p * ell)
    for a, b in rng.integers(0, ctx.q, size=(40, 2)):
        da = np.array(ctx.digits(int(a)))
        db = np.array(ctx.digits(int(b)))
        assert (da @ T @ db) % p == ctx.trace(ctx.mul(int(a), int(b)))


def test_full_space_concentrates_all_mass_at_the_origin():
    ctx = make_field(3)
    A = PointSet(ctx, 2, map(tuple, space_coords(ctx, 2)))
    m = spectral_masses_exact(A, kernels_for(ctx, 2))
    assert (m.zero, m.plus, m.minus) == (1, 0, 0)


def test_singleton_spreads_mass_by_norm_class_counts():
    ctx = make_field(5)
    d = 2
    A = PointSet(ctx, d, [(2, 3)])
    m = spectral_masses_exact(A, kernels_for(ctx, d))
    etas = ctx.eta_table[norm_table(ctx, d)]
    denom = ctx.q**(2 * d)
    assert m.zero == Fraction(int((etas == 0).sum()), denom)
    assert m.plus == Fraction(int((etas == 1).sum()), denom)
    assert m.minus == Fraction(int((etas == -1).sum()), denom)


@pytest.mark.parametrize("p,ell,n", [(3, 1, 2), (3, 1, 3), (5, 1, 2),
                                     (7, 1, 2), (3, 2, 2), (5, 2, 2),
                                     (3, 3, 2)])
def test_cone_transform_closed_form(p, ell, n):
    ctx = make_field(p, ell)
    cone = enumerate_cone(ctx, n)
    chat = dft_indicator(cone)
    assert np.abs(chat - cone_fourier_formula(ctx, n)).max() < 1e-9
    assert abs(chat[0] - len(cone) / ctx.q**n) < 1e-12


@pytest.mark.parametrize("p,ell,d", [(3, 1, 2), (3, 1, 3), (5, 1, 2),
                                     (3, 2, 2), (5, 1, 3), (5, 2, 2),
                                     (3, 3, 2)])
def test_sphere_transform_closed_form(p, ell, d):
    ctx = make_field(p, ell)
    sphere = enumerate_sphere_zero(ctx, d)
    shat = dft_indicator(sphere)
    assert np.abs(shat - sphere0_fourier_formula(ctx, d)).max() < 1e-9
    assert abs(shat[0] - len(sphere) / ctx.q**d) < 1e-12


def test_counting_identity_on_random_sets():
    ctx = make_field(5)
    sphere = enumerate_sphere_zero(ctx, 2)
    shat = dft_indicator(sphere)
    members = set(sphere.points)
    rng = np.random.default_rng(23)
    for trial in range(4):
        E = random_set(ctx, 2, int(rng.integers(2, 26)), seed=trial)
        direct, fourier = verify_counting_lemma(E, sphere, shat)
        brute = sum(tuple(ctx.sub(a, b) for a, b in zip(x, y)) in members
                    for x in E for y in E)
        assert direct == brute
        assert abs(direct - fourier) < 1e-6


def test_zero_mass_bounds():
    ctx = make_field(3)
    P = PointSet(ctx, 2, [(0, 0)])
    with pytest.raises(WrongParityError):
        zero_mass_bounds_check(
            P, spectral_masses_exact(P, kernels_for(ctx, 2)))
    ker = kernels_for(ctx, 3)
    rng = np.random.default_rng(5)
    for trial in range(5):
        A = random_set(ctx, 3, int(rng.integers(1, 28)), seed=trial)
        masses = spectral_masses_exact(A, ker)
        rep = zero_mass_bounds_check(A, masses)
        assert rep.mass_zero == masses.zero
        assert rep.holds
        assert rep.lower <= rep.mass_zero
        assert rep.mass_zero <= min(rep.upper_plancherel, rep.upper_refined)
        assert rep.slack_lower >= 0
        assert rep.slack_upper >= 0


def test_dft_cap():
    ctx = make_field(101)
    A = PointSet(ctx, 3, [(0, 0, 0)])
    with pytest.raises(EnumerationTooLargeError):
        dft_indicator(A)  # 101^3 frequencies is past the DFT cap
    # the closed-form kernels keep the cap: it bounds their powers of q
    with pytest.raises(EnumerationTooLargeError):
        kernels_for(ctx, 3)

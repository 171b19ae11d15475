"""Spectral side: DFT, exact integer kernels, masses, closed-form transforms."""

from fractions import Fraction

import numpy as np
import pytest

from fqdist import (PointSet, cone_fourier_formula, dft_indicator,
                    enumerate_cone, enumerate_sphere_zero, kernels_for,
                    make_field, space_coords, spectral_masses_exact,
                    sphere0_fourier_formula, verify_counting_lemma,
                    zero_mass_bounds_check)
from fqdist.errors import EnumerationTooLargeError, WrongParityError
from fqdist.geometry import norm_table, pack_weights, unpack_coords
from fqdist.spectral import _scaling_class_reps, _trace_forms

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


def dense_kernels(ctx, d):
    """Kernel tables over every packed v, one row of scaling-class dot
    products per representative: O(q^(2d-1)) time and O(q^d) memory."""
    q = ctx.q
    volume = q**d
    packed_reps = _scaling_class_reps(ctx, d)
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
                                     (13, 1, 3), (5, 2, 2), (3, 3, 2)])
def test_norm_indexed_kernels_equal_dense_oracle(p, ell, d):
    ctx = make_field(p, ell)
    ker = kernels_for(ctx, d)
    for table in (ker.zero, ker.plus, ker.minus):
        assert table.shape == (ctx.q,)
    got, want = expand(ker), dense_kernels(ctx, d)
    for sign in (0, 1, -1):
        assert np.array_equal(got[sign], want[sign])


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


# random sets over extension fields, one point, the full space F_9^2,
# and an ell = 1 cell: (p, ell, d, size, seed)
DFT_ORACLE_CASES = [
    (3, 2, 2, 20, 1), (3, 2, 3, 150, 2), (5, 2, 2, 200, 3),
    (3, 3, 2, 300, 4), (3, 2, 3, 1, 5), (3, 2, 2, 81, 6),
    (7, 1, 3, 120, 7),
]


@pytest.mark.parametrize("p,ell,d,size,seed", DFT_ORACLE_CASES)
def test_dft_matches_dot_chunks_oracle(p, ell, d, size, seed):
    ctx = make_field(p, ell)
    A = random_set(ctx, d, size, seed)
    got, want = dft_indicator(A), dot_chunks_dft(A)
    assert np.abs(got - want).max() < 1e-12
    if ell == 1:
        # the same integer dot products, summed in the same order
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p,ell", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3),
                                   (7, 2)])
def test_trace_form_is_the_trace_of_products(p, ell):
    ctx = make_field(p, ell)
    forms = _trace_forms(ctx)
    assert forms.shape == (ell, ell, ell)
    rng = np.random.default_rng(p * ell)
    for k, T in enumerate(forms):
        assert np.array_equal(T, T.T)
        xk = p**k  # packed index of X^k
        for a, b in rng.integers(0, ctx.q, size=(40, 2)):
            da = np.array(ctx.digits(int(a)))
            db = np.array(ctx.digits(int(b)))
            want = ctx.trace(ctx.mul(xk, ctx.mul(int(a), int(b))))
            assert (da @ T @ db) % p == want


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

"""Field contexts: construction, canonical moduli, tables, arithmetic."""

import numpy as np
import pytest

from fqdist import FqdistError, make_field
from fqdist.errors import (BadDegreeError, DivisionByZeroError,
                           EvenCharacteristicError, FieldTooLargeError,
                           NonPrimeError)
from fqdist.geometry import _add_elementwise, _sub_elementwise

FIELDS = [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3)]


class TestConstruction:

    def test_rejects_composite_characteristic(self):
        for bad in (1, 4, 9, 15, 91):
            with pytest.raises(NonPrimeError):
                make_field(bad)

    def test_rejects_characteristic_two(self):
        with pytest.raises(EvenCharacteristicError):
            make_field(2)
        with pytest.raises(EvenCharacteristicError):
            make_field(2, 3)

    def test_rejects_bad_degree(self):
        with pytest.raises(BadDegreeError):
            make_field(3, 0)
        with pytest.raises(BadDegreeError):
            make_field(3, -1)

    def test_rejects_oversized_field(self):
        with pytest.raises(FieldTooLargeError):
            make_field(3, 13)  # 3^13 = 1594323 > 2^20

    def test_errors_are_both_library_and_value_errors(self):
        with pytest.raises(ValueError):
            make_field(6)
        with pytest.raises(FqdistError):
            make_field(6)

    def test_contexts_are_cached(self):
        assert make_field(5) is make_field(5)
        assert make_field(5) is not make_field(5, 2)

    def test_canonical_moduli(self):
        # smallest monic irreducible by coefficient order: X^2 + 1 works
        # whenever -1 is a non-square (p = 3, 7, 11 mod 4 = 3)
        assert make_field(3, 2).modulus == (1, 0, 1)
        assert make_field(7, 2).modulus == (1, 0, 1)
        assert make_field(11, 2).modulus == (1, 0, 1)
        assert make_field(5, 2).modulus == (2, 0, 1)
        assert make_field(13, 2).modulus == (2, 0, 1)
        assert make_field(3, 3).modulus == (1, 2, 0, 1)
        assert make_field(5, 3).modulus == (1, 1, 0, 1)

    def test_modulus_has_no_root_in_base_field(self):
        # enough to certify irreducibility for degree <= 3
        for p, ell in ((3, 2), (5, 2), (7, 2), (3, 3), (5, 3)):
            mod = make_field(p, ell).modulus
            assert len(mod) == ell + 1 and mod[-1] == 1
            for x in range(p):
                assert sum(c * x**i for i, c in enumerate(mod)) % p != 0


@pytest.mark.parametrize("p,ell", FIELDS)
def test_ring_axioms(p, ell):
    ctx = make_field(p, ell)
    q = ctx.q
    els = list(range(q))
    for a in els:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0
        assert ctx.add(a, ctx.neg(a)) == 0
    for a in els:
        for b in els:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
    # associativity and distributivity on a coarse grid
    sample = els[::max(1, q // 7)]
    for a in sample:
        for b in sample:
            for c in sample:
                assert ctx.add(a, ctx.add(b, c)) == ctx.add(ctx.add(a, b), c)
                assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
                assert (ctx.mul(a, ctx.add(b, c))
                        == ctx.add(ctx.mul(a, b), ctx.mul(a, c)))


@pytest.mark.parametrize("p,ell", FIELDS + [(13, 1), (7, 2)])
def test_inverses(p, ell):
    ctx = make_field(p, ell)
    for a in range(1, ctx.q):
        assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(DivisionByZeroError):
        ctx.inv(0)


def test_sub_and_pow():
    ctx = make_field(5, 2)
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.add(ctx.sub(a, b), b) == a
    for a in range(1, ctx.q):
        assert ctx.pow(a, ctx.q - 1) == 1
        acc = 1
        for e in range(6):
            assert ctx.pow(a, e) == acc
            acc = ctx.mul(acc, a)


def test_generator_has_full_multiplicative_order():
    for p, ell in FIELDS:
        ctx = make_field(p, ell)
        seen = set()
        x = 1
        for _ in range(ctx.q - 1):
            seen.add(x)
            x = ctx.mul(x, ctx.generator)
        assert x == 1
        assert len(seen) == ctx.q - 1


def test_prime_field_generators_frozen():
    for p, root in ((3, 2), (5, 2), (7, 3), (11, 2), (13, 2), (17, 3)):
        assert make_field(p).generator == root


def test_digit_round_trip():
    for p, ell in ((3, 2), (5, 3), (7, 1)):
        ctx = make_field(p, ell)
        for a in range(ctx.q):
            ds = ctx.digits(a)
            assert len(ds) == ell
            assert all(0 <= c < p for c in ds)
            assert ctx.from_digits(ds) == a
            assert a == sum(c * p**i for i, c in enumerate(ds))


def test_eta_multiplicative_and_balanced():
    for p, ell in FIELDS:
        ctx = make_field(p, ell)
        q = ctx.q
        tab = ctx.eta_table
        assert tab[0] == 0 and tab[1] == 1
        assert int((tab == 1).sum()) == (q - 1) // 2
        assert int((tab == -1).sum()) == (q - 1) // 2
        for a in range(1, q):
            assert tab[ctx.mul(a, a)] == 1
            for b in range(1, q):
                assert tab[ctx.mul(a, b)] == tab[a] * tab[b]


def test_trace_is_additive_balanced_and_linear_on_prime_subfield():
    ctx = make_field(3, 2)
    tr = ctx.trace_table
    p, q = ctx.p, ctx.q
    assert tr[0] == 0
    for a in range(q):
        assert 0 <= tr[a] < p
        for b in range(q):
            assert tr[ctx.add(a, b)] == (tr[a] + tr[b]) % p
    # every trace value is hit equally often
    assert np.bincount(tr, minlength=p).tolist() == [q // p] * p
    # on the prime subfield the trace multiplies by the degree
    for c in range(p):
        assert tr[c] == (ctx.ell * c) % p


def test_pair_tables_match_scalar_ops():
    for p, ell in ((3, 1), (3, 2), (5, 2), (3, 3)):
        ctx = make_field(p, ell)
        add, sub, mul = ctx.pair_tables
        # the digit arithmetic of geometry agrees on all q^2 pairs
        a, b = np.arange(ctx.q)[:, None], np.arange(ctx.q)[None, :]
        assert np.array_equal(_add_elementwise(ctx, a, b), add)
        assert np.array_equal(_sub_elementwise(ctx, a, b), sub)
        for a in range(ctx.q):
            for b in range(ctx.q):
                assert add[a, b] == ctx.add(a, b)
                assert sub[a, b] == ctx.sub(a, b)
                assert mul[a, b] == ctx.mul(a, b)


def test_pair_tables_refuse_large_fields():
    ctx = make_field(71, 2)  # q = 5041 > 4096
    with pytest.raises(FieldTooLargeError):
        ctx.pair_tables

"""Additive character, quadratic character sums, Gauss sum closed forms."""

import pytest

from fqdist import chi, gauss_closed, gauss_direct, gauss_signs, make_field
from fqdist.errors import OddExponentError, ZeroParameterError

SMALL = [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3)]


def eta_minus_one(ctx):
    """eta(-1): +1 when q = 1 mod 4, -1 when q = 3 mod 4."""
    return ctx.eta(ctx.neg(1))


def completing_square_check(ctx, a, b):
    """|LHS - RHS| for sum_s chi(a s^2 + b s) = eta(a) G_1 chi(b^2 / (-4a)).

    Returns the absolute residual; q odd guarantees -4a is invertible.
    """
    if a == 0:
        raise ZeroParameterError("quadratic coefficient must be nonzero")
    add, mul = ctx.add, ctx.mul
    lhs = 0j
    for s in range(ctx.q):
        lhs += ctx.chi_table[add(mul(a, mul(s, s)), mul(b, s))]
    four = 4 % ctx.p  # the constant 4 lives in the prime subfield
    arg = mul(mul(b, b), ctx.inv(ctx.neg(mul(four, a))))
    rhs = ctx.eta(a) * gauss_direct(ctx, 1) * ctx.chi_table[arg]
    return abs(lhs - rhs)


@pytest.mark.parametrize("p,ell", SMALL)
def test_chi_is_a_nontrivial_additive_character(p, ell):
    ctx = make_field(p, ell)
    assert chi(ctx, 0) == 1
    total = 0j
    for a in range(ctx.q):
        assert abs(abs(chi(ctx, a)) - 1) < 1e-12
        total += chi(ctx, a)
        for b in range(ctx.q):
            lhs = chi(ctx, ctx.add(a, b))
            assert abs(lhs - chi(ctx, a) * chi(ctx, b)) < 1e-12
    assert abs(total) < 1e-9


def test_eta_minus_one_depends_on_q_mod_4():
    for p, ell, want in ((3, 1, -1), (7, 1, -1), (3, 3, -1),
                         (5, 1, 1), (13, 1, 1), (3, 2, 1), (5, 2, 1)):
        assert eta_minus_one(make_field(p, ell)) == want


@pytest.mark.parametrize("p,ell", SMALL + [(7, 2), (11, 1)])
def test_gauss_sum_closed_form_and_magnitude(p, ell):
    ctx = make_field(p, ell)
    direct = gauss_direct(ctx, 1)
    root = ctx.q**0.5
    assert abs(direct - gauss_closed(ctx)) < 1e-9 * root
    assert abs(abs(direct) - root) < 1e-9 * root


def test_gauss_closed_known_values():
    assert abs(gauss_closed(make_field(5)) - 5**0.5) < 1e-12
    assert abs(gauss_closed(make_field(13)) - 13**0.5) < 1e-12
    assert abs(gauss_closed(make_field(3)) - 3**0.5 * 1j) < 1e-12
    assert abs(gauss_closed(make_field(7)) - 7**0.5 * 1j) < 1e-12
    # extension fields pick up a (-1)^(ell-1) factor, and for p = 3 mod 4
    # an extra i^ell
    assert abs(gauss_closed(make_field(3, 2)) - 3) < 1e-12
    assert abs(gauss_closed(make_field(5, 2)) + 5) < 1e-12
    assert abs(gauss_closed(make_field(3, 3)) + 27**0.5 * 1j) < 1e-12


def test_scaled_gauss_sums_follow_the_quadratic_character():
    for p, ell in ((3, 1), (5, 1), (3, 2)):
        ctx = make_field(p, ell)
        g1 = gauss_direct(ctx, 1)
        for a in range(1, ctx.q):
            assert abs(gauss_direct(ctx, a) - ctx.eta(a) * g1) < 1e-9
    with pytest.raises(ZeroParameterError):
        gauss_direct(make_field(3), 0)


def test_sign_table_matches_numeric_powers():
    for p, ell in SMALL:
        ctx = make_field(p, ell)
        g1 = gauss_closed(ctx)
        for n in range(2, 13, 2):
            pair = gauss_signs(n, ctx)
            power = g1**n
            scale = ctx.q**(n // 2)
            assert pair.sigma in (-1, 1) and pair.tau in (-1, 1)
            assert abs(power.imag) < 1e-6 * scale
            assert abs(power.real - pair.sigma * scale) < 1e-6 * scale
            assert pair.tau == eta_minus_one(ctx) * pair.sigma


def test_sign_table_frozen_entries():
    ctx3, ctx5 = make_field(3), make_field(5)
    # q = 3 mod 4 alternates with the exponent mod 4; q = 1 mod 4 never flips
    assert (gauss_signs(2, ctx3).sigma, gauss_signs(2, ctx3).tau) == (-1, 1)
    assert (gauss_signs(4, ctx3).sigma, gauss_signs(4, ctx3).tau) == (1, -1)
    assert (gauss_signs(6, ctx3).sigma, gauss_signs(6, ctx3).tau) == (-1, 1)
    assert (gauss_signs(8, ctx3).sigma, gauss_signs(8, ctx3).tau) == (1, -1)
    for n in (2, 4, 6, 8):
        assert (gauss_signs(n, ctx5).sigma, gauss_signs(n, ctx5).tau) == (1, 1)


def test_sign_table_needs_even_exponent_at_least_two():
    ctx = make_field(3)
    for bad in (0, 1, 3, -2):
        with pytest.raises(OddExponentError):
            gauss_signs(bad, ctx)


@pytest.mark.parametrize("p,ell", [(3, 1), (5, 1), (3, 2)])
def test_completing_the_square_exhaustive(p, ell):
    ctx = make_field(p, ell)
    tol = 1e-10 * ctx.q**0.5
    for a in range(1, ctx.q):
        for b in range(ctx.q):
            assert completing_square_check(ctx, a, b) < tol


def test_completing_the_square_needs_nonzero_quadratic_term():
    with pytest.raises(ZeroParameterError):
        completing_square_check(make_field(5), 0, 1)

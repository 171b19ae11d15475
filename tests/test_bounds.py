"""Exact inequalities, their branch dispatch, and frozen desk-scale values."""

from fractions import Fraction

import numpy as np
import pytest

from fqdist import (PointSet, bound_sq_even_dim, bound_sq_even_generic,
                    bound_sq_odd_dim, bound_sq_plus_zr, case_tag, check_all,
                    count_pairs, is_square_distance_set, make_field,
                    parity_case, space_coords, square_set_size_bound)
from fqdist.errors import UnsupportedCaseError, WrongParityError
from fqdist.geometry import unpack_coords


def test_parity_case_dispatch():
    assert parity_case(3, 3) == 1
    assert parity_case(7, 7) == 1
    assert parity_case(3, 5) == 2
    assert parity_case(5, 3) == 2
    assert parity_case(5, 5) == 2
    assert parity_case(2, 3) == 3
    assert parity_case(2, 7) == 3
    assert parity_case(2, 5) == 4
    assert parity_case(4, 3) == 4
    assert parity_case(4, 7) == 4
    with pytest.raises(UnsupportedCaseError):
        parity_case(1, 3)
    tag = case_tag(3, 3)
    assert (tag.d_mod4, tag.q_mod4, tag.case_id) == (3, 3, 1)


def test_sum_bound_frozen_values():
    assert bound_sq_plus_zr(3, 3, 27) == 405
    assert bound_sq_plus_zr(2, 3, 9) == 45
    assert bound_sq_plus_zr(2, 5, 25) == 425
    assert bound_sq_plus_zr(3, 5, 125) == 10625


def test_odd_dimension_bound_branches():
    assert bound_sq_odd_dim(3, 3, 27) == (Fraction(162), "large")
    assert bound_sq_odd_dim(3, 3, 8) == (Fraction(88, 3), "small")
    # at the exact threshold n = 9 both clauses apply and agree
    assert bound_sq_odd_dim(3, 3, 9) == (Fraction(36), "both")
    assert bound_sq_odd_dim(3, 3, 10) == (Fraction(370, 9), "large")
    assert bound_sq_odd_dim(3, 5, 4) == (Fraction(14), "min2")
    assert bound_sq_odd_dim(3, 5, 125) == (Fraction(7500), "min3")
    with pytest.raises(WrongParityError):
        bound_sq_odd_dim(2, 3, 5)
    with pytest.raises(WrongParityError):
        bound_sq_odd_dim(1, 3, 2)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_odd_dimension_minimum_never_takes_q_hi_n_over_2(d, q):
    # The minimum clause once took the least of three options,
    #   min1 = q_hi n / 2,  min2 = q_lo n / 2 + n^2 / 2,
    #   min3 = n / 2 + q_hi n / 2 - n^2 / (2 q),
    # with q_lo = q^((d-1)/2) and q_hi = q^((d+1)/2) = q_lo q.  For
    # n <= q, min1 - min2 = n (q_lo (q - 1) - n) / 2 > 0, because
    # q_lo >= q > 2 makes n < q_lo (q - 1); for n > q,
    # min1 - min3 = n (n - q) / (2 q) > 0.  So min1 is never the least,
    # and the two-option clause returns the same bound and label.
    q_lo, q_hi = q**((d - 1) // 2), q**((d + 1) // 2)
    for n in range(1, 3001):
        # each option times 2q, in integers
        min1 = q * q_hi * n
        min2 = q * (q_lo * n + n * n)
        min3 = q * n + q * q_hi * n - n * n
        if n <= q:
            assert n < q_lo * (q - 1)
            assert min2 < min1
        else:
            assert min3 < min1
        if parity_case(d, q) == 2:
            best, label = min((min2, "min2"), (min3, "min3"))
            want = Fraction(q * (n * n - q_lo * n - n) + best, 2 * q)
            assert bound_sq_odd_dim(d, q, n) == (want, label)


def test_even_dimension_bound_branches():
    assert bound_sq_even_dim(2, 3, 9) == (Fraction(36), "single")
    assert bound_sq_even_dim(2, 5, 25) == (Fraction(200), "large")
    assert bound_sq_even_dim(2, 5, 4) == (Fraction(72, 5), "small")
    assert bound_sq_even_dim(2, 5, 5) == (Fraction(20), "both")
    with pytest.raises(WrongParityError):
        bound_sq_even_dim(3, 3, 5)


def test_generic_even_bound_frozen_values():
    assert bound_sq_even_generic(2, 3, 9) == 36
    assert bound_sq_even_generic(4, 3, 81) == 3240
    with pytest.raises(WrongParityError):
        bound_sq_even_generic(3, 3, 5)


def test_size_bound_frozen_values():
    assert square_set_size_bound(3, 3) == Fraction(27, 5)
    assert square_set_size_bound(3, 5) == 25
    assert square_set_size_bound(2, 5) == 5
    assert square_set_size_bound(2, 3) == 3


@pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_full_space_attains_the_bounds(p, d):
    ctx = make_field(p)
    A = PointSet(ctx, d, map(tuple, space_coords(ctx, d)))
    counts = count_pairs(A)
    assert bound_sq_plus_zr(d, p, len(A)) == counts.sq + counts.zr
    if d % 2 == 1:
        bound, _ = bound_sq_odd_dim(d, p, len(A))
    else:
        bound, _ = bound_sq_even_dim(d, p, len(A))
    assert bound == counts.sq


def test_bounds_hold_on_a_random_sweep():
    rng = np.random.default_rng(2024)
    for d in (2, 3, 4, 5):
        for q in (3, 5, 7, 9, 13):
            p, ell = (3, 2) if q == 9 else (q, 1)
            ctx = make_field(p, ell)
            volume = q**d
            for _ in range(200):
                size = int(rng.integers(1, min(volume, 60) + 1))
                picks = rng.choice(volume, size=size, replace=False)
                A = PointSet(ctx, d,
                             map(tuple, unpack_coords(q, d, picks)))
                for rep in check_all(A, count_pairs(A)):
                    assert rep.holds, (d, q, size, rep)
                    assert rep.lhs <= rep.rhs
                    assert rep.slack == rep.rhs - rep.lhs


def test_report_rows_shape():
    ctx = make_field(5)
    A = PointSet(ctx, 3, [(0, 0, 0), (1, 1, 0)])  # distance 2, a non-square
    assert not is_square_distance_set(A)
    assert [r.name for r in check_all(A, count_pairs(A))] == [
        "sq_plus_zr", "sq_odd_dim"]
    B = PointSet(ctx, 2, [(0, 0), (1, 0)])  # distance 1, a square
    assert is_square_distance_set(B)
    assert [r.name for r in check_all(B, count_pairs(B))] == [
        "sq_plus_zr", "sq_even_dim", "sq_even_generic", "square_set_size"]
    for rep in check_all(B, count_pairs(B)):
        assert rep.holds
        assert rep.case.case_id == 4

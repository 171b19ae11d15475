"""Exact rational upper bounds on pair statistics, and their verification.

Every bound is dispatched on the pair (d mod 4, q mod 4), which collapses
to four clauses; within each clause the parity hypothesis makes every
exponent of q an integer (asserted, never rounded).  All arithmetic is
`Fraction` with exact comparisons, so equality cases, which genuinely
occur (full spaces attain several of these bounds), never hinge on a
tolerance.  Threshold branch selection is likewise exact; at a threshold
hit both branches apply, so the minimum of the two is reported.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import UnsupportedCaseError, WrongParityError
from .geometry import PointSet
from .pairs import PairCounts, count_pairs


def parity_case(d: int, q: int) -> int:
    """Clause id in 1..4 from (d mod 4, q mod 4).

    1: d = 3 mod 4 and q = 3 mod 4
    2: d = 1 mod 4, or d = 3 mod 4 and q = 1 mod 4
    3: d = 2 mod 4 and q = 3 mod 4
    4: d = 0 mod 4, or d = 2 mod 4 and q = 1 mod 4
    """
    if d < 2:
        raise UnsupportedCaseError(f"case dispatch needs d >= 2, got d={d}")
    d4, q4 = d % 4, q % 4
    if d4 == 3 and q4 == 3:
        return 1
    if d4 in (1, 3):
        return 2
    if d4 == 2 and q4 == 3:
        return 3
    return 4


@dataclass(frozen=True)
class CaseTag:
    d_mod4: int
    q_mod4: int
    case_id: int


def case_tag(d: int, q: int) -> CaseTag:
    return CaseTag(d_mod4=d % 4, q_mod4=q % 4, case_id=parity_case(d, q))


def _half_pow(q: int, twice_exp: int) -> int:
    """q**(twice_exp / 2); the exponent must clear to an integer."""
    if twice_exp % 2 != 0 or twice_exp < 0:
        raise ArithmeticError(
            f"fractional or negative exponent {twice_exp}/2 of q")
    return q**(twice_exp // 2)


def bound_sq_plus_zr(d: int, q: int, size: int) -> Fraction:
    """Upper bound on sq + zr, in the four-clause case dispatch."""
    case = parity_case(d, q)
    n = size
    nn = Fraction(n * n)
    base = nn / 2 + nn / (2 * q)
    if case == 1:
        return (base - nn / (2 * _half_pow(q, d - 1))
                - nn / (2 * _half_pow(q, d + 1)) + _half_pow(q, d - 1) * n)
    if case == 2:
        return (base + Fraction(_half_pow(q, d + 1) * n, 2)
                - Fraction(_half_pow(q, d - 1) * n, 2))
    if case == 3:
        return (base - nn / _half_pow(q, d)
                + Fraction(_half_pow(q, d) * n, 2)
                + Fraction(_half_pow(q, d - 2) * n, 2))
    return (base + Fraction(_half_pow(q, d) * n, 2)
            - Fraction(_half_pow(q, d - 2) * n, 2))


def bound_sq_odd_dim(d: int, q: int, size: int):
    """Upper bound on sq for odd d >= 3; returns (bound, branch).

    branch is "large" / "small" for the threshold clause (or "both" at an
    exact threshold hit, where the minimum of the two applies) and
    "min2" / "min3" for the minimum clause.
    """
    if d % 2 == 0 or d < 3:
        raise WrongParityError(f"odd-dimension bound needs odd d >= 3, got d={d}")
    case = parity_case(d, q)
    n = size
    nn = Fraction(n * n)
    q_lo = _half_pow(q, d - 1)
    q_hi = _half_pow(q, d + 1)
    if case == 1:
        large = (nn / 2 + q_lo * n - nn / (2 * q) - nn / (2 * q_lo)
                 - nn / (2 * q_hi))
        small = (nn / 2 + Fraction(q_lo * n, 2) - nn / (2 * q_lo)
                 - Fraction(n, 2))
        threshold = Fraction(q_hi + q) / (1 + Fraction(1, q_lo))
        if n > threshold:
            return large, "large"
        if n < threshold:
            return small, "small"
        return min(large, small), "both"
    # the clause's first option, q_hi * n / 2, is never the least for
    # odd d >= 3 (tests/test_bounds.py), so the labels start at min2
    best, branch = min(
        (Fraction(q_lo * n, 2) + nn / 2, "min2"),
        (Fraction(n, 2) + Fraction(q_hi * n, 2) - nn / (2 * q), "min3"))
    return nn / 2 - Fraction(q_lo * n, 2) - Fraction(n, 2) + best, branch


def bound_sq_even_dim(d: int, q: int, size: int):
    """Upper bound on sq for even d >= 2; returns (bound, branch)."""
    if d % 2 != 0 or d < 2:
        raise WrongParityError(f"even-dimension bound needs even d >= 2, got d={d}")
    case = parity_case(d, q)
    n = size
    nn = Fraction(n * n)
    q_mid = _half_pow(q, d)
    q_lo = _half_pow(q, d - 2)
    if case == 3:
        bound = (nn / 2 + Fraction(q_mid * n, 2) - nn / (2 * q)
                 - Fraction(q_lo * n, 2))
        return bound, "single"
    large = (nn / 2 + Fraction(q_mid * n, 2) - nn / q_mid - nn / (2 * q)
             + Fraction(q_lo * n, 2))
    small = (nn / 2 + Fraction(q_mid * n, 2) - nn / (2 * q_mid)
             - Fraction(n, 2))
    threshold = Fraction(q_mid + q) / (1 + Fraction(1, q_lo))
    if n > threshold:
        return large, "large"
    if n < threshold:
        return small, "small"
    return min(large, small), "both"


def bound_sq_even_generic(d: int, q: int, size: int) -> Fraction:
    """Weaker sq bound valid for all even d >= 2 regardless of q mod 4."""
    if d % 2 != 0 or d < 2:
        raise WrongParityError(f"generic even bound needs even d >= 2, got d={d}")
    n = size
    nn = Fraction(n * n)
    q_mid = _half_pow(q, d)
    return (nn / 2 + Fraction(q_mid * n, 2) - nn / (2 * q_mid)
            - Fraction(n, 2))


def square_set_size_bound(d: int, q: int) -> Fraction:
    """Maximum possible size of a set whose distances are all squares or
    zero, per the four-clause case dispatch."""
    case = parity_case(d, q)
    if case == 1:
        return (Fraction(2 * _half_pow(q, d + 1))
                / (q - 1 + Fraction(q + 1, _half_pow(q, d - 1))))
    if case == 2:
        return Fraction(_half_pow(q, d + 1))
    q_mid = _half_pow(q, d)
    if case == 3:
        return q_mid + (Fraction(2 * (q_mid - q))
                        / (q - 1 + Fraction(2, _half_pow(q, d - 2))))
    return Fraction(q_mid)


def is_square_distance_set(A: PointSet) -> bool:
    """True iff no ordered pair of A is at a non-square distance."""
    return count_pairs(A).nonsq == 0


@dataclass(frozen=True)
class BoundReport:
    """One measured quantity against one exact bound."""

    name: str
    case: CaseTag
    lhs: Fraction
    rhs: Fraction
    holds: bool
    slack: Fraction
    branch: Optional[str] = None


def _report(name, tag, lhs, rhs, branch=None) -> BoundReport:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return BoundReport(name=name, case=tag, lhs=lhs, rhs=rhs,
                       holds=lhs <= rhs, slack=rhs - lhs, branch=branch)


def check_all(A: PointSet, counts: PairCounts) -> list:
    """Evaluate every applicable bound against the measured pair counts
    `counts = count_pairs(A)`, computed once by the caller."""
    d, q, n = A.d, A.ctx.q, len(A)
    tag = case_tag(d, q)
    reports = [_report("sq_plus_zr", tag, counts.sq + counts.zr,
                       bound_sq_plus_zr(d, q, n))]
    if d % 2 == 1:
        rhs, branch = bound_sq_odd_dim(d, q, n)
        reports.append(_report("sq_odd_dim", tag, counts.sq, rhs, branch))
    else:
        rhs, branch = bound_sq_even_dim(d, q, n)
        reports.append(_report("sq_even_dim", tag, counts.sq, rhs, branch))
        reports.append(_report("sq_even_generic", tag, counts.sq,
                               bound_sq_even_generic(d, q, n)))
    if counts.nonsq == 0:
        reports.append(_report("square_set_size", tag, n,
                               square_set_size_bound(d, q)))
    return reports

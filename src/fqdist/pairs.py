"""Pair statistics of a point set: how many ordered pairs land at a
square distance, at distance zero, or at a non-square distance.

`count_pairs` is the brute-force side: enumerate all ordered pairs and
classify ||x - y||.  `predict_from_spectrum` is the spectral side: the
same three numbers reconstructed exactly, with rational arithmetic, from
the zero / square / non-square masses of the indicator's spectrum and
the sign table of Gauss sum powers.  The two must agree on the nose on
every input, and the integrality of the spectral prediction is asserted
so a broken sign or kernel fails loudly instead of rounding quietly.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import gauss_closed, gauss_signs
from .errors import (EmptySetError, EnumerationTooLargeError,
                     TooManyPairsError, UnsupportedDimensionError)
from .geometry import (ENUMERATION_CAP, PointSet, _add_elementwise,
                       _digit_weights, _packed_digits, _square_values,
                       _sub_elementwise, norm_table)
from .spectral import SpectralMass, _inner_sum_table, dft_indicator

PAIR_CAP = 10**9
MASTER_CAP = 10**5


@dataclass(frozen=True)
class PairCounts:
    """Ordered-pair counts by the quadratic class of ||x - y||.
    Diagonal pairs x = y are included (they land in zr)."""

    sq: int
    zr: int
    nonsq: int

    def total(self) -> int:
        return self.sq + self.zr + self.nonsq


def _check_pair_budget(n: int):
    if n * n > PAIR_CAP:
        raise TooManyPairsError(f"{n}^2 ordered pairs exceed cap {PAIR_CAP}")


def count_pairs(A: PointSet) -> PairCounts:
    """Classify all ordered pairs of A by the quadratic class of the
    distance, by direct enumeration: through the packed norm table, or
    above its cap by summing the squares of the coordinates."""
    if len(A) == 0:
        raise EmptySetError("pair counts need a nonempty set")
    ctx, d, n = A.ctx, A.d, len(A)
    _check_pair_budget(n)
    pts = A.coords
    small = ctx.q**d <= ENUMERATION_CAP
    if small:
        ntab = norm_table(ctx, d)
        weights = np.array([ctx.q**(d - 1 - i) for i in range(d)],
                           dtype=np.int64)
    else:
        squares = _square_values(ctx)
    sq = zr = 0
    chunk = max(1, (1 << 21) // max(n, 1))
    for s in range(0, n, chunk):
        diffs = _sub_elementwise(ctx, pts[s:s + chunk, None, :],
                                 pts[None, :, :])
        if small:
            norms = ntab[diffs.reshape(-1, d) @ weights]
        else:
            norms = squares[diffs[..., 0]]
            for i in range(1, d):
                norms = _add_elementwise(ctx, norms, squares[diffs[..., i]])
            norms = norms.reshape(-1)
        etas = ctx.eta_table[norms]
        sq += int((etas == 1).sum())
        zr += int((norms == 0).sum())
    return PairCounts(sq=sq, zr=zr, nonsq=n * n - sq - zr)


def _prefix_norms(ctx, d, squares):
    """prefix[v] = ||v|| over packed F_q^d, as a packed element.

    Built from `squares` (squares[a] = a^2) alone, adding them coordinate
    by coordinate; the cached `norm_table` and `cone_norm_table` are not
    read, so the cone lift shares no norm table with `count_pairs` or the
    spectral pipeline.
    """
    prefix = squares
    for _ in range(d - 1):
        prefix = _add_elementwise(ctx, prefix[:, None],
                                  squares[None, :]).reshape(-1)
    return prefix


def _cone_incidences_on_digits(A: PointSet) -> int:
    """Ordered pairs of E = A x F_q whose difference lies on the zero
    cone of ||.||_C, from differences of F_p digits (any ell)."""
    ctx, d, q, p = A.ctx, A.d, A.ctx.q, A.ctx.p
    if q**d > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"q^d = {q**d} exceeds cap {ENUMERATION_CAP}")
    n_lift = len(A) * q
    squares = _square_values(ctx)
    prefix = _prefix_norms(ctx, d, squares)
    # (x, s) in E packs to x * q + s
    lifted_packed = (A.packed()[:, None] * q + np.arange(q)).reshape(-1)
    lifted = _packed_digits(ctx, d + 1, lifted_packed).astype(np.int32)
    # a difference is on the cone exactly when the norm of its first d
    # coordinates equals the square of its last one.  Within the cap that
    # is one boolean table over packed F_q^(d+1), read after one matmul
    # (verify-ext runs 15% faster with it than with the lookup below);
    # above it the two parts are packed apart, each below
    # q^d <= ENUMERATION_CAP, so int32 indices always fit
    split = d * ctx.ell
    head_weights = _digit_weights(ctx, d).astype(np.int32)
    last_weights = _digit_weights(ctx, 1).astype(np.int32)
    cone = None
    if q**(d + 1) <= ENUMERATION_CAP:
        cone = (prefix[:, None] == squares[None, :]).reshape(-1)
        weights = _digit_weights(ctx, d + 1).astype(np.int32)
    incidences = 0
    chunk = max(1, (1 << 21) // n_lift)
    for s in range(0, n_lift, chunk):
        diffs = lifted[s:s + chunk, None, :] - lifted[None, :, :]
        diffs %= p
        if cone is not None:
            hits = cone[diffs @ weights]
        else:
            hits = (prefix[diffs[..., :split] @ head_weights]
                    == squares[diffs[..., split:] @ last_weights])
        incidences += int(np.count_nonzero(hits))
    return incidences


def cone_lift_check(A: PointSet, counts: PairCounts):
    """Count incidences of the zero cone on the lifted set E = A x F_q,
    and the value q * (2*sq + zr) it must equal, where counts is
    `count_pairs(A)`, computed once by the caller.

    Returns (incidences, predicted).  The left side is a genuine
    enumeration over E x E, in row blocks of at most 2^21 lifted
    differences.  For ell = 1 it classifies each difference with modular
    arithmetic on coordinates.  For ell > 1 it takes differences of F_p
    digits mod p and packs them with integer matmuls.  A difference is on
    the cone when the norm of its first d coordinates, from a table built
    from the squares ctx.mul(a, a) with digit-wise sums mod p, equals the
    square of its last one; when q^(d+1) is within the enumeration cap,
    both are folded into one boolean table over packed F_q^(d+1).
    Nothing is shared with `count_pairs` beyond the field tables; in
    particular no norm table is read.
    """
    if len(A) == 0:
        raise EmptySetError("cone lift needs a nonempty set")
    ctx, d, q = A.ctx, A.d, A.ctx.q
    n_lift = len(A) * q
    if n_lift * n_lift > PAIR_CAP:
        raise TooManyPairsError(
            f"lifted set has {n_lift}^2 ordered pairs, over cap {PAIR_CAP}")
    if ctx.ell == 1:
        lifted = np.empty((n_lift, d + 1), dtype=np.int64)
        lifted[:, :d] = np.repeat(A.coords, q, axis=0)
        lifted[:, d] = np.tile(np.arange(q, dtype=np.int64), len(A))
        incidences = 0
        chunk = max(1, (1 << 21) // n_lift)
        for s in range(0, n_lift, chunk):
            diffs = (lifted[s:s + chunk, None, :] - lifted[None, :, :]) % ctx.p
            cn = (diffs[:, :, :d]**2).sum(axis=2) - diffs[:, :, d]**2
            incidences += int((cn % ctx.p == 0).sum())
    else:
        incidences = _cone_incidences_on_digits(A)
    predicted = q * (2 * counts.sq + counts.zr)
    return incidences, predicted


def predict_from_spectrum(A: PointSet, masses: SpectralMass) -> PairCounts:
    """Reconstruct the exact pair counts from the spectral masses.

    Uses only rational arithmetic plus the integer sign table; the
    result is asserted to clear to integers before it is returned.
    Requires d >= 2 (in one dimension the square class of a difference
    is not a function of the distance alone in the sense used here).
    """
    ctx, d, q, n = A.ctx, A.d, A.ctx.q, len(A)
    if d < 2:
        raise UnsupportedDimensionError("spectral prediction needs d >= 2")
    n_sq = Fraction(n * n)
    if d % 2 == 1:
        tau = gauss_signs(d + 1, ctx).tau
        sq_plus_half_zr = (n_sq / 2
                           + Fraction(tau * q**((3 * d + 1) // 2), 2) * masses.zero
                           - Fraction(tau * q**((d - 1) // 2) * n, 2))
        half_zr = (n_sq / (2 * q)
                   + Fraction(tau * q**((3 * d - 1) // 2), 2)
                   * (masses.plus - masses.minus))
    else:
        sigma_hi = gauss_signs(d + 2, ctx).sigma
        sigma_lo = gauss_signs(d, ctx).sigma
        sq_plus_half_zr = (n_sq / 2
                           + Fraction(sigma_hi * q**(3 * d // 2), 2)
                           * (masses.plus - masses.minus))
        half_zr = (n_sq / (2 * q)
                   + Fraction(sigma_lo * q**(3 * d // 2), 2) * masses.zero
                   - Fraction(sigma_lo * q**((d - 2) // 2) * n, 2))
    zr = 2 * half_zr
    sq = sq_plus_half_zr - half_zr
    if zr.denominator != 1 or sq.denominator != 1:
        raise ArithmeticError(
            f"spectral prediction is not integral: sq={sq}, zr={zr}")
    sq_i, zr_i = int(sq), int(zr)
    nonsq = n * n - sq_i - zr_i
    if min(sq_i, zr_i, nonsq) < 0:
        raise ArithmeticError(
            f"spectral prediction out of range: sq={sq_i}, zr={zr_i}")
    return PairCounts(sq=sq_i, zr=zr_i, nonsq=nonsq)


def sq_zr_fourier_residual(A: PointSet, counts: PairCounts) -> float:
    """Residual of the direct spectral identity for sq + zr/2.

    Evaluates sq + zr/2 once from counts (`count_pairs(A)`, computed by
    the caller) and once as
    |A|^2/2 + (q^(d-1) eta(-1)^d G_1^(d+1) / 2) *
        sum_m sum_{s != 0} eta^(d+1)(s) chi(s ||m||) |A_hat(m)|^2
    in floating point, and returns the absolute difference.
    """
    ctx, d, q, n = A.ctx, A.d, A.ctx.q, len(A)
    if q**d > MASTER_CAP:
        raise EnumerationTooLargeError(
            f"q^d = {q**d} exceeds direct-identity cap {MASTER_CAP}")
    exact = counts.sq + counts.zr / 2
    power = np.abs(dft_indicator(A))**2
    # sum_s eta^(d+1)(s) chi(s t) is, with u = 1/s, that inner sum at c = 1
    weight = _inner_sum_table(ctx, d + 1, 1)[norm_table(ctx, d)]
    coeff = (q**(d - 1) * ctx.eta(ctx.neg(1))**d * gauss_closed(ctx)**(d + 1)
             / 2)
    rhs = n * n / 2 + coeff * np.sum(weight * power)
    return abs(rhs - exact)

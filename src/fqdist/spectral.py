"""Fourier transforms of indicator functions and exact spectral masses.

Everything downstream rests on splitting the frequency space F_q^d into
three pieces by the quadratic class of the norm: zero, square, non-square.
The mass of an indicator's spectrum on each piece is a nonnegative
rational with denominator q^(2d), and it can be computed exactly with
integer arithmetic from the character sum of each piece against a fixed
vector v.

For v != 0 that character sum depends only on b = ||v||, and completing
the square evaluates it in closed form: with G_1^2 = eta(-1) * q it is
an integer in q, d, eta(-1), eta(-b) and [b = 0] (Lidl-Niederreiter,
Finite Fields, ch. 6).  So the kernels are three tables of q integers
indexed by the norm, plus their values at the origin, built in O(q); the
closed-form sphere and cone transforms are functions of the norm too.

The DFT is the only character enumeration here.  Its dot products are
taken on F_p digits through the trace form Tr(a * b) for every
q = p^ell, and chi(z) = exp(2 pi i Tr(z) / p).

Two independent pipelines are kept alive on purpose.  The exact one goes
through the integer kernel tables and `Fraction`; the numeric one goes
through a complex DFT.  They must agree to float precision, and the
tests hold them to that.
"""

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import gauss_closed
from .errors import EmptySetError, EnumerationTooLargeError, WrongParityError
from .field import FieldCtx
from .geometry import (PointSet, _packed_digits, _sub_elementwise,
                       cone_norm_table, norm_table, pack_weights)

DFT_CAP = 10**6
PERIODIC_CAP = 1 << 16


def _check_transform_size(q: int, d: int):
    if q**d > DFT_CAP:
        raise EnumerationTooLargeError(
            f"transform space q^d = {q**d} exceeds cap {DFT_CAP}")


def _dot_bound(ctx, d: int) -> int:
    """One more than the largest integer dot product of two vectors of
    d * ell F_p digits in [0, p): d * ell * (p - 1)^2 + 1."""
    return d * ctx.ell * (ctx.p - 1)**2 + 1


def _trace_form(ctx) -> np.ndarray:
    """(ell, ell) Gram matrix T[j, l] = Tr(X^j * X^l) of the trace form on
    the basis 1, X, ..., X^(ell-1) of F_q over F_p, so
    Tr(a * b) = digits(a) . T . digits(b) mod p."""
    basis = [ctx.p**j for j in range(ctx.ell)]  # packed index of X^j
    return np.array([[ctx.trace(ctx.mul(a, b)) for b in basis]
                     for a in basis], dtype=np.int64)


def _mod_p_reader(table: np.ndarray, bound: int):
    """A function taking an integer array `dots` with entries in
    [0, bound) to table[dots % p], where p = len(table).

    When bound <= PERIODIC_CAP it gathers from table tiled to length
    bound, so unreduced dot products are read with no `% p`.  Above that
    it reduces `dots` in place, overwriting its argument, and gathers
    from table itself.
    """
    if bound <= PERIODIC_CAP:
        return np.resize(table, bound).__getitem__
    p = len(table)

    def read(dots):
        dots %= p
        return table[dots]
    return read


def dft_indicator(A: PointSet) -> np.ndarray:
    """All Fourier coefficients of the indicator of A.

    Returns a complex array over packed frequencies m with
    out[m] = q^(-d) sum_{x in A} chi(-m . x).

    The trace is F_p-bilinear, so with T the trace form (`_trace_form`)
    Tr(m . x) = digits(m) . (I_d (x) T) . digits(x) mod p on the F_p
    digits of the packed indices: one integer matmul per block of
    frequencies, left unreduced, and conj(chi) read through
    `_mod_p_reader` over its bound d * ell * (p - 1)^2 + 1.  At
    ell = 1, T is [[1]] and the digits are the coordinates.
    """
    ctx, d, p = A.ctx, A.d, A.ctx.p
    _check_transform_size(ctx.q, d)
    volume = ctx.q**d
    form = np.kron(np.eye(d, dtype=np.int64), _trace_form(ctx))
    pts = (_packed_digits(ctx, d, A.packed()) @ form % p).T
    conj_chi = np.conj(np.exp(2j * cmath.pi
                              * np.arange(p, dtype=np.float64) / p))
    read_chi = _mod_p_reader(conj_chi, _dot_bound(ctx, d))
    freqs = _packed_digits(ctx, d, np.arange(volume))
    out = np.empty(volume, dtype=np.complex128)
    # at most 2^18 terms per block: the block's integer and complex
    # temporaries stay in cache
    chunk = max(1, (1 << 18) // max(len(A), 1))
    for start in range(0, volume, chunk):
        out[start:start + chunk] = read_chi(
            freqs[start:start + chunk] @ pts).sum(axis=1)
    out /= volume
    return out


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Integer character sums of the three norm classes, indexed by norm.

    For the frequency classes S_0 = {m : ||m|| = 0}, S_+ = {m : eta(||m||)
    = +1} and S_- = {m : eta(||m||) = -1}, and any nonzero v,

    zero[||v||]  = sum over m in S_0 of chi(m . v)
    plus[||v||]  = sum over m in S_+ of chi(m . v)
    minus[||v||] = sum over m in S_- of chi(m . v)

    Each array has length q; an entry whose norm no nonzero vector takes
    is 0.  At v = 0 every character is 1, so the sums are the class sizes
    origin = (|S_0|, |S_+|, |S_-|).  All values are exact integers, given
    in closed form by `kernels_for`.
    """

    ctx: FieldCtx
    d: int
    zero: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    origin: tuple


def kernels_for(ctx: FieldCtx, d: int) -> KernelTable:
    """Exact norm-indexed kernel tables for dimension d over ctx, in
    closed form: O(q) time and memory, no character sum.

    Completing the square and G_1^2 = eta(-1) * q give, with
    g = (eta(-1) * q)^ceil(d/2) and b = ||v|| for v != 0,

      d even: K_0 = g (q [b=0] - 1) / q,  K_+ - K_- = g eta(-b);
      d odd:  K_0 = g eta(-b) / q,  K_+ - K_- = g eta(-1) (q [b=0] - 1) / q;

    and K_+ = (-K_0 + (K_+ - K_-)) / 2, K_- = (-K_0 - (K_+ - K_-)) / 2, as
    the three sum to 0 at v != 0.  The same evaluation counts the vectors
    of norm b as N(b) = q^(d-1) + K_0(b), which gives the class sizes at
    the origin and the norms a nonzero vector takes, N(b) - [b=0] > 0.
    q^d <= DFT_CAP keeps every power of q inside int64.
    """
    _check_transform_size(ctx.q, d)
    q = ctx.q
    eta = ctx.eta_table.astype(np.int64)
    eta_m1 = ctx.eta(ctx.neg(1))
    g = (eta_m1 * q)**((d + 1) // 2)
    eta_mb = eta_m1 * eta                    # eta(-b)
    b_is_0 = np.zeros(q, dtype=np.int64)
    b_is_0[0] = 1
    at_zero = q * b_is_0 - 1                 # q [b=0] - 1
    if d % 2 == 0:
        zero, diff = g // q * at_zero, g * eta_mb
    else:
        zero, diff = g // q * eta_mb, g // q * eta_m1 * at_zero
    counts = q**(d - 1) + zero               # N(b)
    taken = counts - b_is_0 > 0
    zero[~taken] = diff[~taken] = 0
    origin = (int(counts[0]), int(counts[eta == 1].sum()),
              int(counts[eta == -1].sum()))
    return KernelTable(ctx, d, zero, (diff - zero) // 2, (-diff - zero) // 2,
                       origin)


@dataclass(frozen=True)
class SpectralMass:
    """Spectrum mass of an indicator on the three norm classes; each is
    an exact nonnegative rational with denominator dividing q^(2d)."""

    zero: Fraction
    plus: Fraction
    minus: Fraction

    def total(self) -> Fraction:
        return self.zero + self.plus + self.minus


def _diff_counts(A: PointSet) -> np.ndarray:
    """Multiset of pairwise differences x - y over A x A, as counts
    indexed by the packed difference."""
    ctx, d = A.ctx, A.d
    volume = ctx.q**d
    weights = pack_weights(ctx.q, d)
    pts = A.coords
    counts = np.zeros(volume, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(len(A), 1))
    for s in range(0, len(A), chunk):
        diffs = _sub_elementwise(ctx, pts[s:s + chunk, None, :],
                                 pts[None, :, :])
        packed = diffs.reshape(-1, d) @ weights
        counts += np.bincount(packed, minlength=volume)
    return counts


def spectral_masses_exact(A: PointSet, kernels: KernelTable) -> SpectralMass:
    """Exact spectral masses of A via the integer kernel tables.

    zero + plus + minus always equals |A| / q^d (Plancherel), and each
    summand is nonnegative; both facts are enforced here.
    """
    if len(A) == 0:
        raise EmptySetError("spectral masses need a nonempty set")
    ctx, d = A.ctx, A.d
    if kernels.ctx is not ctx or kernels.d != d:
        raise ValueError("kernel table does not match the point set")
    counts = _diff_counts(A)
    # fold the nonzero differences by norm; Python ints from here on, so
    # no product or sum can wrap
    by_norm = np.zeros(ctx.q, dtype=np.int64)
    np.add.at(by_norm, norm_table(ctx, d)[1:], counts[1:])
    by_norm = by_norm.tolist()
    at_origin = int(counts[0])
    denom = ctx.q**(2 * d)

    def fold(table, origin_value):
        total = at_origin * origin_value + sum(
            c * k for c, k in zip(by_norm, table.tolist()))
        return Fraction(total, denom)

    zero0, plus0, minus0 = kernels.origin
    mass = SpectralMass(zero=fold(kernels.zero, zero0),
                        plus=fold(kernels.plus, plus0),
                        minus=fold(kernels.minus, minus0))
    if min(mass.zero, mass.plus, mass.minus) < 0:
        raise ArithmeticError("negative spectral mass; kernel table corrupt")
    if mass.total() != Fraction(len(A), ctx.q**d):
        raise ArithmeticError("spectral masses violate Plancherel")
    return mass


def _inner_sum_table(ctx, n: int, denom_scale: int) -> np.ndarray:
    """Table over t in F_q of sum_{s != 0} eta^n(s) chi(t / (c*s)) where
    c is the field element denom_scale mod p (c = +-4 or 1 in practice).
    For even n it is q [t=0] - 1; for odd n, substituting u = t / (c*s),
    it is eta(c) eta(t) G_1."""
    if n % 2 == 0:
        out = np.full(ctx.q, -1.0)
        out[0] = ctx.q - 1
        return out
    return ctx.eta(denom_scale % ctx.p) * gauss_closed(ctx) * ctx.eta_table


def cone_fourier_formula(ctx, n: int) -> np.ndarray:
    """Closed-form Fourier transform of the cone {x : ||x||_C = 0} in
    F_q^n, as a complex array over packed frequencies m (the layout of
    dft_indicator).  Away from m = 0 it depends only on ||m||_C."""
    inner = _inner_sum_table(ctx, n, -4)
    g1 = gauss_closed(ctx)
    out = (ctx.q**(-n - 1) * ctx.eta(ctx.neg(1)) * g1**n
           * inner[cone_norm_table(ctx, n)])
    out[0] += 1.0 / ctx.q
    return out


def sphere0_fourier_formula(ctx, d: int) -> np.ndarray:
    """Closed-form Fourier transform of the zero sphere {x : ||x|| = 0}
    in F_q^d, as a real array over packed frequencies m (the layout of
    dft_indicator): the zero kernel K_0(||m||) / q^d, and |S_0| / q^d at
    m = 0."""
    kernels = kernels_for(ctx, d)
    out = kernels.zero[norm_table(ctx, d)] / ctx.q**d
    out[0] = kernels.origin[0] / ctx.q**d
    return out


def verify_counting_lemma(E: PointSet, V: PointSet, vhat: np.ndarray):
    """Both sides of: #{(x, y) in E^2 : x - y in V} equals
    q^(2n) sum_m V_hat(m) |E_hat(m)|^2.

    vhat is `dft_indicator(V)`, taken from the caller, which has
    usually computed it already to check V's closed-form transform.
    Returns (direct, fourier) with direct an integer and fourier the
    real part of the spectral side.
    """
    if E.ctx is not V.ctx or E.d != V.d:
        raise ValueError("E and V must live in the same space")
    ctx, d = E.ctx, E.d
    _check_transform_size(ctx.q, d)
    volume = ctx.q**d
    indicator = np.zeros(volume, dtype=np.int64)
    indicator[V.packed()] = 1
    direct = int(_diff_counts(E) @ indicator)
    ehat = dft_indicator(E)
    fourier = volume**2 * np.sum(vhat * np.abs(ehat)**2)
    return direct, float(fourier.real)


@dataclass(frozen=True)
class ZeroMassReport:
    """Exact zero-norm spectral mass against its lower and upper bounds."""

    mass_zero: Fraction
    lower: Fraction
    upper_plancherel: Fraction
    upper_refined: Fraction
    holds: bool
    slack_lower: Fraction
    slack_upper: Fraction


def zero_mass_bounds_check(A: PointSet,
                           masses: SpectralMass) -> ZeroMassReport:
    """Check |A|^2/q^(2d) <= mass <= min(|A|/q^d, |A|/q^(d+1) + |A|^2/q^((3d+1)/2))
    for the exact zero-norm mass; odd dimension d >= 3 only.

    masses is `spectral_masses_exact(A, ...)`, computed once by the caller.
    """
    d, q, n = A.d, A.ctx.q, len(A)
    if d % 2 == 0 or d < 3:
        raise WrongParityError(f"refined zero-mass bound needs odd d >= 3, got d={d}")
    mass = masses.zero
    lower = Fraction(n * n, q**(2 * d))
    upper_p = Fraction(n, q**d)
    upper_r = Fraction(n, q**(d + 1)) + Fraction(n * n, q**((3 * d + 1) // 2))
    upper = min(upper_p, upper_r)
    return ZeroMassReport(
        mass_zero=mass, lower=lower, upper_plancherel=upper_p,
        upper_refined=upper_r, holds=lower <= mass <= upper,
        slack_lower=mass - lower, slack_upper=upper - mass)

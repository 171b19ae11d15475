"""Fourier transforms of indicator functions and exact spectral masses.

Everything downstream rests on splitting the frequency space F_q^d into
three pieces by the quadratic class of the norm: zero, square, non-square.
The mass of an indicator's spectrum on each piece is a nonnegative
rational with denominator q^(2d), and it can be computed exactly with
integer arithmetic: the character sum of each piece against a fixed
vector v collapses, one scaling class at a time, to (q - 1) or -1.

For v != 0 that character sum depends only on ||v||: the orthogonal group
acts transitively on nonzero vectors of equal norm (Witt) and preserves
each norm class.  So the kernels are three tables of q integers indexed
by the norm, plus their values at the origin, and the closed-form sphere
and cone transforms are functions of the norm too.

Dot products are taken on F_p digits through the trace forms
Tr(X^k * a * b) for every q = p^ell, and chi(z) = exp(2 pi i Tr(z) / p).

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


def _check_transform_size(q: int, d: int):
    if q**d > DFT_CAP:
        raise EnumerationTooLargeError(
            f"transform space q^d = {q**d} exceeds cap {DFT_CAP}")


def _trace_forms(ctx) -> np.ndarray:
    """(ell, ell, ell) array of the Gram matrices T_k[j, l] =
    Tr(X^k * X^j * X^l) on the basis 1, X, ..., X^(ell-1) of F_q over
    F_p, so Tr(X^k * a * b) = digits(a) . T_k . digits(b) mod p.  T_0 is
    the trace form; it is nondegenerate, so z = 0 exactly when
    Tr(X^k * z) = 0 for every k."""
    basis = [ctx.p**j for j in range(ctx.ell)]  # packed index of X^j
    return np.array([[[ctx.trace(ctx.mul(ctx.mul(xk, a), b)) for b in basis]
                      for a in basis] for xk in basis], dtype=np.int64)


def dft_indicator(A: PointSet) -> np.ndarray:
    """All Fourier coefficients of the indicator of A.

    Returns a complex array over packed frequencies m with
    out[m] = q^(-d) sum_{x in A} chi(-m . x).

    The trace is F_p-bilinear, so with T the trace form (`_trace_forms`)
    Tr(m . x) = digits(m) . (I_d (x) T) . digits(x) mod p on the F_p
    digits of the packed indices: one integer matmul per block of
    frequencies, and chi read from a table of length p.  At ell = 1, T
    is [[1]] and the digits are the coordinates.
    """
    ctx, d, p = A.ctx, A.d, A.ctx.p
    _check_transform_size(ctx.q, d)
    volume = ctx.q**d
    form = np.kron(np.eye(d, dtype=np.int64), _trace_forms(ctx)[0])
    pts = (_packed_digits(ctx, d, A.packed()) @ form % p).T
    conj_chi = np.conj(np.exp(2j * cmath.pi
                              * np.arange(p, dtype=np.float64) / p))
    freqs = _packed_digits(ctx, d, np.arange(volume))
    out = np.empty(volume, dtype=np.complex128)
    # at most 2^21 terms per block: the block's integer and complex
    # temporaries stay small, and smaller blocks run faster
    chunk = max(1, (1 << 21) // max(len(A), 1))
    for start in range(0, volume, chunk):
        dots = freqs[start:start + chunk] @ pts % p
        out[start:start + chunk] = conj_chi[dots].sum(axis=1)
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
    origin = (|S_0|, |S_+|, |S_-|).  All values are exact integers: the
    nonzero frequencies split into scaling classes {t * rep : t != 0}
    that stay inside one norm class, and each class contributes q - 1
    when rep . v = 0 and -1 otherwise.
    """

    ctx: FieldCtx
    d: int
    zero: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    origin: tuple


def _scaling_class_reps(ctx, d: int) -> np.ndarray:
    """One representative per scaling class of nonzero vectors: the
    vectors whose first nonzero coordinate is 1, as R = (q^d - 1) / (q - 1)
    packed indices.  Those with `free` coordinates after the leading 1
    pack to q^free + (0, ..., q^free - 1)."""
    q = ctx.q
    return np.concatenate([q**free + np.arange(q**free, dtype=np.int64)
                           for free in range(d - 1, -1, -1)])


def kernels_for(ctx: FieldCtx, d: int) -> KernelTable:
    """Exact norm-indexed kernel tables for dimension d over ctx.

    Takes one nonzero vector per norm value and sums characters against
    it, one scaling class of frequencies at a time: O(q^d) time and O(q)
    memory.  Uses only field arithmetic, never pair counts.  rep . v = 0
    is tested on F_p digits as Tr(X^k * rep . v) = 0 for every k < ell.
    """
    _check_transform_size(ctx.q, d)
    q, p, ell = ctx.q, ctx.p, ctx.ell
    volume = q**d
    ntab = norm_table(ctx, d)
    packed_reps = _scaling_class_reps(ctx, d)
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
                            for t in _trace_forms(ctx)], axis=1)
    signs = (0, 1, -1)
    hits = {sign: np.zeros(len(norms), dtype=np.int64) for sign in signs}
    chunk = max(1, (1 << 22) // forms.shape[1])
    for start in range(0, len(rep_digits), chunk):
        dots = rep_digits[start:start + chunk] @ forms % p
        zero = (dots == 0).reshape(len(dots), ell, len(norms)).all(axis=1)
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
    chi(t * u) is read through the trace form, in O(q) memory per s."""
    p, q = ctx.p, ctx.q
    c = denom_scale % p
    form = _trace_forms(ctx)[0]
    chi = np.exp(2j * cmath.pi * np.arange(p, dtype=np.float64) / p)
    t_digits = _packed_digits(ctx, 1, np.arange(q))
    out = np.zeros(q, dtype=np.complex128)
    for s in range(1, q):
        coeff = ctx.eta(s) if n % 2 else 1
        u = ctx.inv(ctx.mul(c, s))
        out += coeff * chi[t_digits @ (form @ ctx.digits(u)) % p]
    return out


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
    in F_q^d, as a complex array over packed frequencies m (the layout
    of dft_indicator).  Away from m = 0 it depends only on ||m||."""
    inner = _inner_sum_table(ctx, d, 4)
    g1 = gauss_closed(ctx)
    eta_m1 = ctx.eta(ctx.neg(1))
    out = ctx.q**(-d - 1) * eta_m1**d * g1**d * inner[norm_table(ctx, d)]
    out[0] += 1.0 / ctx.q
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

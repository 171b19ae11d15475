"""Arithmetic in F_q for odd prime powers q = p^ell.

Field elements are plain integers 0 <= idx < q encoding the residue
polynomial c_0 + c_1 X + ... + c_{ell-1} X^{ell-1} as idx = sum c_i p^i.
A FieldCtx owns the modulus and every lookup table (discrete exp/log for
multiplication, quadratic character, trace, additive character values) and
is immutable after construction, so it can be shared freely across workers.

The modulus is the monic irreducible of degree ell over F_p whose free
coefficient vector (c_0, ..., c_{ell-1}), read as a base-p integer, is
smallest.  That pins the element encoding, so indices are reproducible
across runs and in file dumps.
"""

import cmath
import functools

import numpy as np

from .errors import (
    BadDegreeError,
    DivisionByZeroError,
    EvenCharacteristicError,
    FieldTooLargeError,
    NonPrimeError,
)

# Desk-scale guardrails: fields above 2^20 elements are refused outright,
# and q x q numpy lookup tables are only materialized for small q.
CONSTRUCTION_CAP = 1 << 20
PAIR_TABLE_CAP = 4096


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# Polynomials over F_p as little-endian coefficient lists (used only while
# constructing a field: modulus search and the bootstrap multiplication).
# ----------------------------------------------------------------------

def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_sub(f, g, p):
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return _poly_trim([(a - b) % p for a, b in zip(f, g)])


def _poly_mulmod(f, g, mod, p):
    """f * g reduced mod the monic polynomial `mod`, coefficients mod p."""
    prod = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] = (prod[i + j] + a * b) % p
    # long division by monic mod
    n = len(mod) - 1
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] - c * mod[j]) % p
    return _poly_trim(prod)


def _poly_powmod(f, e, mod, p):
    result = [1]
    base = _poly_mulmod(f, [1], mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_mod(f, g, p):
    """Remainder of f by g (g nonzero, not necessarily monic)."""
    f = _poly_trim(list(f))
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) >= len(g):
        c = (f[-1] * inv_lead) % p
        shift = len(f) - len(g)
        for j in range(len(g)):
            f[shift + j] = (f[shift + j] - c * g[j]) % p
        _poly_trim(f)
    return f


def _poly_gcd(f, g, p):
    f, g = _poly_trim(list(f)), _poly_trim(list(g))
    while g:
        f, g = g, _poly_mod(f, g, p)
    return f


def _is_irreducible(mod, p):
    """Rabin test: x^(p^n) == x mod f, and gcd(x^(p^(n/r)) - x, f) = 1
    for every prime r dividing n."""
    n = len(mod) - 1
    if n == 1:
        return True
    x = [0, 1]
    h = _poly_powmod(x, p ** n, mod, p)
    if _poly_sub(h, x, p):
        return False
    for r in _prime_factors(n):
        h = _poly_powmod(x, p ** (n // r), mod, p)
        diff = _poly_sub(h, x, p)
        g = _poly_gcd(diff, list(mod), p)
        if len(g) != 1:
            return False
    return True


def _find_modulus(p, ell):
    """Smallest monic irreducible of degree ell, ordered by the base-p
    packing of the free coefficients."""
    if ell == 1:
        return (0, 1)  # X itself; any degree-1 monic works for F_p
    for idx in range(p ** ell):
        coeffs = []
        t = idx
        for _ in range(ell):
            coeffs.append(t % p)
            t //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldCtx:
    """Immutable description of F_q with all element tables precomputed.

    Attributes:
        p, ell, q: characteristic, extension degree, order.
        modulus: monic modulus as a coefficient tuple (c_0, ..., c_ell).
        generator: index of a fixed multiplicative generator.
        eta_table: int8 array, eta_table[a] in {-1, 0, +1}.
        trace_table: int32 array of absolute traces in [0, p).
        chi_table: complex128 array, chi_table[a] = exp(2*pi*i*Tr(a)/p).
    """

    def __init__(self, p, ell=1):
        if not isinstance(p, int) or not _is_prime(p):
            raise NonPrimeError(f"p = {p} is not prime")
        if p == 2:
            raise EvenCharacteristicError("q must be odd (no quadratic character for p = 2)")
        if not isinstance(ell, int) or ell < 1:
            raise BadDegreeError(f"ell = {ell} must be a positive integer")
        q = p ** ell
        if q > CONSTRUCTION_CAP:
            raise FieldTooLargeError(f"q = {q} exceeds cap {CONSTRUCTION_CAP}")
        self.p = p
        self.ell = ell
        self.q = q
        self.modulus = _find_modulus(p, ell)
        self._mod_free = list(self.modulus[:-1])
        self._pair_tables = None
        self._build_tables()

    # -- bootstrap multiplication straight off the polynomial encoding --

    def _mul_poly(self, a, b):
        if self.ell == 1:
            return (a * b) % self.p
        f = self.digits(a)
        g = self.digits(b)
        prod = _poly_mulmod(list(f), list(g), list(self.modulus), self.p)
        return self.from_digits(prod + [0] * (self.ell - len(prod)))

    def _build_tables(self):
        p, q = self.p, self.q
        # generator of the multiplicative group, smallest by index
        radicals = [(q - 1) // r for r in _prime_factors(q - 1)]
        gen = None
        for g in range(2, q):
            if all(self._pow_poly(g, e) != 1 for e in radicals):
                gen = g
                break
        assert gen is not None, "multiplicative group has a generator"
        self.generator = gen

        exp = np.empty(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_poly(acc, gen)
        assert acc == 1, "generator order must be q - 1"
        self._exp = exp
        self._log = log

        # quadratic character: squares are exactly the even powers of gen
        eta = np.where(log % 2 == 0, 1, -1).astype(np.int8)
        eta[0] = 0
        self.eta_table = eta
        assert int(np.sum(eta == 1)) == (q - 1) // 2
        assert int(np.sum(eta == -1)) == (q - 1) // 2

        # absolute trace Tr(a) = sum_{i < ell} a^(p^i), an element of F_p
        trace = np.zeros(q, dtype=np.int32)
        if self.ell == 1:
            trace[:] = np.arange(q)
        else:
            for a in range(1, q):
                la = int(log[a])
                t = 0
                pk = 1
                for _ in range(self.ell):
                    t = self.add(t, int(exp[(la * pk) % (q - 1)]))
                    pk *= p
                dig = self.digits(t)
                assert all(c == 0 for c in dig[1:]), "trace must land in F_p"
                trace[a] = dig[0]
        self.trace_table = trace

        # principal additive character via the trace composition
        self.chi_table = np.exp(2j * cmath.pi * trace.astype(np.float64) / p)

    def _pow_poly(self, a, e):
        r = 1
        base = a
        while e:
            if e & 1:
                r = self._mul_poly(r, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return r

    # -- element encoding ------------------------------------------------

    def digits(self, a):
        """Base-p coefficient vector (c_0, ..., c_{ell-1}) of an element."""
        if not 0 <= a < self.q:
            raise ValueError(f"element index {a} out of range [0, {self.q})")
        out = []
        for _ in range(self.ell):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_digits(self, coeffs):
        if len(coeffs) != self.ell:
            raise ValueError(f"expected {self.ell} coefficients")
        idx = 0
        for c in reversed(coeffs):
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient {c} out of range [0, {self.p})")
            idx = idx * self.p + c
        return idx

    # -- field operations ------------------------------------------------

    def add(self, a, b):
        if self.ell == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.ell):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a):
        if self.ell == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.ell):
            out += (-a % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.ell == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def inv(self, a):
        if a == 0:
            raise DivisionByZeroError("inverse of zero")
        return int(self._exp[(-self._log[a]) % (self.q - 1)])

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZeroError("negative power of zero")
            return 0
        return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])

    def trace(self, a):
        """Absolute trace to F_p, returned as an integer in [0, p)."""
        return int(self.trace_table[a])

    def eta(self, a):
        """Quadratic character: +1 on nonzero squares, -1 on non-squares, 0 at 0."""
        return int(self.eta_table[a])

    # -- bulk lookup tables (lazy; only for modest q) ---------------------

    @property
    def pair_tables(self):
        """(add, sub, mul) as q x q int32 arrays, for vectorized kernels.

        Only available for q <= PAIR_TABLE_CAP; larger fields use the
        scalar operations or, for ell = 1, plain modular numpy arithmetic.
        """
        if self._pair_tables is None:
            q = self.q
            if q > PAIR_TABLE_CAP:
                raise FieldTooLargeError(
                    f"pair tables need q <= {PAIR_TABLE_CAP}, got q = {q}")
            add = np.empty((q, q), dtype=np.int32)
            mul = np.zeros((q, q), dtype=np.int32)
            for a in range(q):
                for b in range(a, q):
                    add[a, b] = add[b, a] = self.add(a, b)
                    m = self.mul(a, b)
                    mul[a, b] = mul[b, a] = m
            negs = np.array([self.neg(a) for a in range(q)], dtype=np.int64)
            sub = add[:, negs]
            self._pair_tables = (add, sub, mul)
        return self._pair_tables

    def __repr__(self):
        return f"FieldCtx(p={self.p}, ell={self.ell}, q={self.q})"


@functools.lru_cache(maxsize=None)
def _cached_field(p, ell):
    return FieldCtx(p, ell)


def make_field(p, ell=1):
    """Construct (and cache) the canonical F_{p^ell} context.

    The same (p, ell) always yields the same object, so context identity
    can stand in for field equality.
    """
    return _cached_field(p, ell)

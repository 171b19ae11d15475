"""Additive character, Gauss sums, and the sign table for their even powers.

The principal additive character is chi(a) = exp(2*pi*i*Tr(a)/p).  The
Gauss sum G_a = sum_{s != 0} eta(s) chi(a*s) has |G_a| = sqrt(q) and a
known closed form; for even n the normalized powers G_1^n / q^(n/2) and
eta(-1) G_1^n / q^(n/2) are signs determined by (n mod 4, q mod 4) alone.
Those two signs are the only character-engine values the exact integer
pipeline consumes; every complex quantity here is cross-validation only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OddExponentError, ZeroParameterError


def chi(ctx, a):
    """Principal additive character chi(a) = exp(2*pi*i*Tr(a)/p)."""
    return complex(ctx.chi_table[a])


def gauss_direct(ctx, a):
    """G_a = sum_{s != 0} eta(s) chi(a*s), by direct summation."""
    if a == 0:
        raise ZeroParameterError("Gauss sum parameter must be nonzero")
    la = int(ctx._log[a])
    # a*s over s != 0, via discrete logs; s runs over exp-table order
    prods = ctx._exp[(np.arange(ctx.q - 1) + la) % (ctx.q - 1)]
    etas = ctx.eta_table[ctx._exp[np.arange(ctx.q - 1)]]
    return complex(np.sum(etas * ctx.chi_table[prods]))


def gauss_closed(ctx):
    """Closed form of G_1: (-1)^(ell-1) sqrt(q) for p = 1 mod 4, and
    (-1)^(ell-1) i^ell sqrt(q) for p = 3 mod 4."""
    root = math.sqrt(ctx.q)
    sign = -1.0 if ctx.ell % 2 == 0 else 1.0
    if ctx.p % 4 == 1:
        return complex(sign * root)
    i_pow = (1 + 0j, 1j, -1 + 0j, -1j)[ctx.ell % 4]
    return sign * i_pow * root


@dataclass(frozen=True)
class GaussSignPair:
    """sigma = G_1^n / q^(n/2) and tau = eta(-1) G_1^n / q^(n/2), n even."""

    sigma: int
    tau: int


def gauss_signs(n, ctx):
    """Exact sign pair for an even power n >= 2 of the Gauss sum.

    The four cases, by (n mod 4, q mod 4):
      sigma = -1 iff n = 2 mod 4 and q = 3 mod 4,
      tau   = -1 iff n = 0 mod 4 and q = 3 mod 4,
    and +1 otherwise.  Consistent with tau = eta(-1) * sigma.
    """
    if n % 2 != 0 or n < 2:
        raise OddExponentError(f"sign table needs even n >= 2, got {n}")
    n4, q4 = n % 4, ctx.q % 4
    sigma = -1 if (n4 == 2 and q4 == 3) else 1
    tau = -1 if (n4 == 0 and q4 == 3) else 1
    return GaussSignPair(sigma=sigma, tau=tau)

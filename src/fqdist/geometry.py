"""Vectors and point sets in F_q^d.

Covers the distance form ||v|| = sum v_i^2, the cone form
||x||_C = x_1^2 + ... + x_{n-1}^2 - x_n^2, enumeration of the zero sphere
and the cone, and distance sets.

Points are tuples of element indices.  A PointSet keeps its points
deduplicated and sorted lexicographically, so hashes, file dumps and
report output are deterministic.  Bulk work uses numpy over packed vector
indices: a vector (c_0, ..., c_{d-1}) packs to sum c_i * q^(d-1-i), which
makes packed order agree with tuple order.
Vector arithmetic works digit by digit on the F_p digits of element
indices for every q = p^ell, with no q x q table.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    EmptySetError,
    EnumerationTooLargeError,
)

ENUMERATION_CAP = 10 ** 7

# per-(p, ell, d) caches of packed-index tables; contexts are canonical
# via make_field, so the key cannot collide
_NORM_TABLES = {}
_CONE_TABLES = {}


def pack_weights(q, d):
    return np.array([q ** (d - 1 - i) for i in range(d)], dtype=np.int64)


def pack_coords(q, coords):
    """Packed indices of an (n, d) coordinate array (c_0 most significant)."""
    coords = np.asarray(coords, dtype=np.int64)
    return coords @ pack_weights(q, coords.shape[-1])


def unpack_coords(q, d, packed):
    """Inverse of pack_coords; returns an (n, d) int64 array."""
    packed = np.asarray(packed, dtype=np.int64)
    out = np.empty(packed.shape + (d,), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        out[..., i] = packed % q
        packed = packed // q
    return out


def _digit_weights(ctx, width):
    """Weight of each F_p digit in a packed index of F_q^width.

    Digit j of coordinate i has weight p^(ell * (width - 1 - i) + j), so
    a packed index is the base-p number its digits form; the weights are
    listed coordinate by coordinate, digit j of coordinate i at position
    i * ell + j.  At ell = 1 these are the packing weights.
    """
    p, ell = ctx.p, ctx.ell
    return np.array([p ** (ell * (width - 1 - i) + j)
                     for i in range(width) for j in range(ell)],
                    dtype=np.int64)


def _packed_digits(ctx, width, packed):
    """(n, width * ell) int64 array of the F_p digits of packed indices
    of F_q^width, in the order of `_digit_weights`; at ell = 1 it equals
    `unpack_coords`."""
    packed = np.asarray(packed, dtype=np.int64)
    return (packed[:, None] // _digit_weights(ctx, width)) % ctx.p


class PointSet:
    """Deduplicated point set in F_q^d with canonical (lexicographic) order."""

    def __init__(self, ctx, d, points):
        if d < 1:
            raise DimensionTooSmallError(f"dimension {d} < 1")
        q = ctx.q
        cleaned = set()
        for pt in points:
            pt = tuple(int(c) for c in pt)
            if len(pt) != d:
                raise DimensionMismatchError(
                    f"point {pt} has {len(pt)} coordinates, expected {d}")
            if any(not 0 <= c < q for c in pt):
                raise ValueError(f"point {pt} has coordinates outside [0, {q})")
            cleaned.add(pt)
        self.ctx = ctx
        self.d = d
        self.points = tuple(sorted(cleaned))
        self._coords = None

    @property
    def coords(self):
        """(n, d) int64 coordinate array, cached."""
        if self._coords is None:
            self._coords = np.array(self.points, dtype=np.int64).reshape(len(self.points), self.d)
        return self._coords

    def packed(self):
        return pack_coords(self.ctx.q, self.coords)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other):
        return (isinstance(other, PointSet) and self.ctx is other.ctx
                and self.d == other.d and self.points == other.points)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.ell, self.d, self.points))

    def __repr__(self):
        return f"PointSet(q={self.ctx.q}, d={self.d}, n={len(self)})"

    def translate(self, t):
        """The translate A + t."""
        add = self.ctx.add
        t = tuple(t)
        if len(t) != self.d:
            raise DimensionMismatchError("translation vector has wrong length")
        return PointSet(self.ctx, self.d,
                        [tuple(add(c, s) for c, s in zip(pt, t)) for pt in self.points])


def norm(ctx, v):
    """||v|| = v_1^2 + ... + v_d^2 as an element index."""
    acc = 0
    for c in v:
        acc = ctx.add(acc, ctx.mul(c, c))
    return acc


def _check_cap(q, d):
    if q ** d > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"q^d = {q ** d} exceeds enumeration cap {ENUMERATION_CAP}")


def _square_values(ctx):
    q = ctx.q
    return np.array([ctx.mul(a, a) for a in range(q)], dtype=np.int64)


def norm_table(ctx, d):
    """Array over packed indices v of the element index of ||v||.

    Built dimension by dimension: with c_0 most significant, index
    pre * q + c extends prefix norm N[pre] by c^2.
    """
    key = (ctx.p, ctx.ell, d)
    tab = _NORM_TABLES.get(key)
    if tab is None:
        _check_cap(ctx.q, d)
        q = ctx.q
        sq = _square_values(ctx)
        tab = sq.copy()
        for _ in range(d - 1):
            tab = _add_elementwise(ctx, tab[:, None], sq[None, :]).reshape(-1)
        tab.setflags(write=False)
        _NORM_TABLES[key] = tab
    return tab


def cone_norm_table(ctx, n):
    """Array over packed indices x of the element index of ||x||_C."""
    if n < 2:
        raise DimensionTooSmallError("cone form needs at least 2 coordinates")
    key = (ctx.p, ctx.ell, n)
    tab = _CONE_TABLES.get(key)
    if tab is None:
        _check_cap(ctx.q, n)
        sq = _square_values(ctx)
        prefix = norm_table(ctx, n - 1)
        tab = _sub_elementwise(ctx, prefix[:, None], sq[None, :]).reshape(-1)
        tab.setflags(write=False)
        _CONE_TABLES[key] = tab
    return tab


def _add_elementwise(ctx, a, b):
    """a + b on element arrays: digit k is (a // p^k + b // p^k) mod p."""
    p = ctx.p
    out, weight = (a + b) % p, 1
    for _ in range(ctx.ell - 1):
        weight *= p
        out += (a // weight + b // weight) % p * weight
    return out


def _sub_elementwise(ctx, a, b):
    """a - b on element arrays: digit k is (a // p^k - b // p^k) mod p."""
    p = ctx.p
    out, weight = (a - b) % p, 1
    for _ in range(ctx.ell - 1):
        weight *= p
        out += (a // weight - b // weight) % p * weight
    return out


def space_coords(ctx, d):
    """All q^d coordinate vectors in canonical order, as an (q^d, d) array."""
    _check_cap(ctx.q, d)
    return unpack_coords(ctx.q, d, np.arange(ctx.q ** d, dtype=np.int64))


def enumerate_sphere_zero(ctx, d):
    """The zero sphere S_0 = {x : ||x|| = 0}; always contains the origin."""
    if d < 1:
        raise DimensionTooSmallError(f"dimension {d} < 1")
    tab = norm_table(ctx, d)
    packed = np.nonzero(tab == 0)[0]
    return PointSet(ctx, d, map(tuple, unpack_coords(ctx.q, d, packed)))


def enumerate_cone(ctx, n):
    """The cone {x in F_q^n : ||x||_C = 0}."""
    tab = cone_norm_table(ctx, n)
    packed = np.nonzero(tab == 0)[0]
    return PointSet(ctx, n, map(tuple, unpack_coords(ctx.q, n, packed)))


def distance_set(A):
    """Delta(A) = {||x - y||} over ordered pairs, as a set of element indices.

    Scans the difference rows x - A for x in A in blocks of 1, 2, 4, ...
    rows, at most max(1, 2^21 // n) rows at a time, so no more than 2^21
    differences (one row, for n > 2^21) are held at once.  Delta(A) is a
    subset of F_q, so the scan stops as soon as all q values have been
    seen; large sets usually see every distance from the first pinned
    row.  A set that misses some value, such as a square-distance set,
    costs all n^2 pairs.
    """
    n = len(A)
    if n == 0:
        raise EmptySetError("distance set of an empty point set")
    ctx, X = A.ctx, A.coords
    ntab = norm_table(ctx, A.d)
    weights = pack_weights(ctx.q, A.d)
    seen = np.zeros(ctx.q, dtype=bool)
    cap = max(1, (1 << 21) // n)
    start, rows = 0, 1
    while start < n and not seen.all():
        diffs = _sub_elementwise(ctx, X[start:start + rows, None, :],
                                 X[None, :, :])
        seen[ntab[diffs @ weights]] = True
        start += rows
        rows = min(2 * rows, cap)
    return set(np.flatnonzero(seen).tolist())

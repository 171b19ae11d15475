"""Deterministic point-set generators and square-distance-set search.

All randomness flows through numpy's Philox generator, a counter-based
64-bit PRNG whose streams are reproducible across platforms, so a
(ctx, d, spec) triple always yields the same set.  Random subsets are
drawn as a seeded shuffle of the lexicographic enumeration of the space.
"""

import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import square_set_size_bound
from .errors import (DimensionMismatchError, DimensionTooSmallError,
                     EnumerationTooLargeError, InvalidBasisError,
                     MissingSeedError, SizeTooLargeError,
                     UnsupportedCaseError)
from .geometry import (ENUMERATION_CAP, PointSet, _sub_elementwise,
                       norm_table, pack_weights, space_coords,
                       unpack_coords)

SEARCH_CAP = 10**5
EXHAUSTIVE_ENUM_CAP = 16
DEFAULT_NODE_BUDGET = 10**8

RANDOM_KINDS = ("random",)


@dataclass(frozen=True)
class GenSpec:
    """Declarative description of a generated point set.

    kind is one of: random, line, subspace, sphere_slice, full_space,
    product_lift, file.  Only the parameters the kind uses need to be
    set; `seed` is mandatory for random kinds and for sphere_slice with
    a size limit.
    """

    kind: str
    size: Optional[int] = None
    seed: Optional[int] = None
    direction: Optional[tuple] = None
    through: Optional[tuple] = None
    basis: Optional[tuple] = None
    radius: int = 0
    base: Optional["GenSpec"] = None
    path: Optional[str] = None


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _require_seed(spec: GenSpec):
    if spec.seed is None:
        raise MissingSeedError(f"kind {spec.kind!r} needs a seed")


def _check_vector(ctx, d, v, what: str):
    if v is None:
        raise InvalidBasisError(f"{what} vector is required")
    v = tuple(int(c) for c in v)
    if len(v) != d:
        raise InvalidBasisError(f"{what} has length {len(v)}, expected {d}")
    if not all(0 <= c < ctx.q for c in v):
        raise InvalidBasisError(f"{what} has out-of-range coordinates")
    return v


def generate(ctx, d: int, spec: GenSpec) -> PointSet:
    """Materialize the point set described by spec in F_q^d."""
    q = ctx.q
    kind = spec.kind
    if kind == "full_space":
        return PointSet(ctx, d, map(tuple, space_coords(ctx, d)))
    if kind == "random":
        _require_seed(spec)
        volume = q**d
        if volume > ENUMERATION_CAP:
            raise EnumerationTooLargeError(
                f"q^d = {volume} exceeds cap {ENUMERATION_CAP}")
        size = spec.size
        if size is None or not 1 <= size <= volume:
            raise SizeTooLargeError(
                f"random size must be in 1..{volume}, got {size}")
        picks = _rng(spec.seed).permutation(volume)[:size]
        return PointSet(ctx, d, map(tuple, unpack_coords(q, d, picks)))
    if kind == "line":
        direction = _check_vector(ctx, d, spec.direction, "direction")
        if all(c == 0 for c in direction):
            raise InvalidBasisError("direction must be nonzero")
        through = (_check_vector(ctx, d, spec.through, "through")
                   if spec.through is not None else (0,) * d)
        pts = []
        for t in range(q):
            pts.append(tuple(ctx.add(through[i], ctx.mul(t, direction[i]))
                             for i in range(d)))
        return PointSet(ctx, d, pts)
    if kind == "subspace":
        if not spec.basis:
            raise InvalidBasisError("subspace needs a nonempty basis")
        basis = [_check_vector(ctx, d, b, "basis vector") for b in spec.basis]
        rank = len(basis)
        if q**rank > ENUMERATION_CAP:
            raise EnumerationTooLargeError(
                f"span enumeration q^{rank} exceeds cap {ENUMERATION_CAP}")
        pts = []
        for idx in range(q**rank):
            coeffs = [(idx // q**j) % q for j in range(rank)]
            pt = [0] * d
            for c, b in zip(coeffs, basis):
                for i in range(d):
                    pt[i] = ctx.add(pt[i], ctx.mul(c, b[i]))
            pts.append(tuple(pt))
        return PointSet(ctx, d, pts)
    if kind == "sphere_slice":
        radius = spec.radius
        if not 0 <= radius < q:
            raise InvalidBasisError(f"radius {radius} outside 0..{q - 1}")
        tab = norm_table(ctx, d)
        packed = np.nonzero(tab == radius)[0]
        if packed.size == 0:
            raise SizeTooLargeError(f"sphere of radius {radius} is empty")
        if spec.size is not None:
            _require_seed(spec)
            if not 1 <= spec.size <= packed.size:
                raise SizeTooLargeError(
                    f"sphere slice size must be in 1..{packed.size}")
            packed = packed[_rng(spec.seed).permutation(packed.size)][:spec.size]
        return PointSet(ctx, d, map(tuple, unpack_coords(q, d, packed)))
    if kind == "product_lift":
        if d < 2:
            raise DimensionTooSmallError("product lift needs d >= 2")
        if spec.base is None:
            raise InvalidBasisError("product_lift needs a base spec")
        return product_lift(generate(ctx, d - 1, spec.base))
    if kind == "file":
        from .setfiles import read_pointset
        if spec.path is None:
            raise InvalidBasisError("file kind needs a path")
        A = read_pointset(spec.path)
        if A.ctx is not ctx or A.d != d:
            raise DimensionMismatchError(
                f"file holds a set over F_{A.ctx.q}^{A.d}, "
                f"requested F_{ctx.q}^{d}")
        return A
    raise InvalidBasisError(f"unknown generator kind {kind!r}")


def product_lift(A: PointSet) -> PointSet:
    """E = A x F_q, one dimension up."""
    ctx = A.ctx
    pts = [pt + (s,) for pt in A for s in range(ctx.q)]
    return PointSet(ctx, A.d + 1, pts)


def _square_ok(ctx):
    """Boolean table over element indices: norm value allowed in a
    square-distance set (zero or a square)."""
    return ctx.eta_table >= 0


def greedy_square_distance_search(ctx, d: int, seed: int,
                                  restarts: int = 20) -> PointSet:
    """Best maximal-by-inclusion square-distance set over seeded greedy
    restarts.

    Each restart walks the points of F_q^d in a seeded random order and
    keeps a point whenever all its distances to the kept set stay in
    {0} union squares.  Restarts share one Philox stream, so the result
    is a deterministic function of (ctx, d, seed, restarts); the best
    set is chosen by size, then lexicographic point order.
    """
    q = ctx.q
    volume = q**d
    if volume > SEARCH_CAP:
        raise EnumerationTooLargeError(
            f"q^d = {volume} exceeds search cap {SEARCH_CAP}")
    ok = _square_ok(ctx)
    ntab = norm_table(ctx, d)
    weights = pack_weights(q, d)
    coords = space_coords(ctx, d)
    rng = _rng(seed)
    best = None
    for _ in range(max(1, restarts)):
        order = rng.permutation(volume)
        chosen_rows = []
        for cand in order:
            cpt = coords[cand]
            if chosen_rows:
                diffs = _sub_elementwise(ctx, cpt[None, :],
                                         coords[chosen_rows])
                if not ok[ntab[diffs @ weights]].all():
                    continue
            chosen_rows.append(int(cand))
        pts = sorted(map(tuple, coords[chosen_rows]))
        if best is None or len(pts) > len(best) or \
                (len(pts) == len(best) and pts < best):
            best = pts
    return PointSet(ctx, d, best)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the exhaustive maximum search."""

    size: int
    witness: PointSet
    exact: bool
    nodes: int


def exhaustive_square_distance_max(ctx, d: int,
                                   node_budget: int = DEFAULT_NODE_BUDGET
                                   ) -> SearchResult:
    """Maximum size of a square-distance set in F_q^d, exactly.

    Tiny spaces (q^d <= 16) are settled by full subset enumeration.
    Larger ones run a depth-first branch-and-bound over lexicographic
    candidates, pruning with the proven size bound (any set beating it
    would falsify the bound, which the checker would catch first) and a
    node budget; if the budget runs out the best set found so far is
    returned with exact=False.
    """
    if d < 2:
        raise UnsupportedCaseError("maximum search needs d >= 2")
    q = ctx.q
    volume = q**d
    if volume > SEARCH_CAP:
        raise EnumerationTooLargeError(
            f"q^d = {volume} exceeds search cap {SEARCH_CAP}")
    ok = _square_ok(ctx)
    ntab = norm_table(ctx, d)
    weights = pack_weights(q, d)
    coords = space_coords(ctx, d)

    def compatible(v: int, cands: np.ndarray) -> np.ndarray:
        diffs = _sub_elementwise(ctx, coords[cands], coords[v][None, :])
        return cands[ok[ntab[diffs @ weights]]]

    if volume <= EXHAUSTIVE_ENUM_CAP:
        # full subset enumeration with a precomputed compatibility matrix
        diffs = _sub_elementwise(ctx, coords[:, None, :], coords[None, :, :])
        compat = ok[ntab[diffs.reshape(-1, d) @ weights]].reshape(volume,
                                                                  volume)
        best_mask = 0
        best_size = 0
        for mask in range(1, 1 << volume):
            members = [i for i in range(volume) if mask >> i & 1]
            if len(members) <= best_size:
                continue
            good = all(compat[a][b] for i, a in enumerate(members)
                       for b in members[i + 1:])
            if good:
                best_mask, best_size = mask, len(members)
        pts = [tuple(coords[i]) for i in range(volume) if best_mask >> i & 1]
        return SearchResult(size=best_size,
                            witness=PointSet(ctx, d, pts),
                            exact=True, nodes=1 << volume)

    cap = int(square_set_size_bound(d, q))  # floor; sets cannot exceed it
    best_pts: list = []
    nodes = 0
    exhausted = False

    def extend(current: list, cands: np.ndarray):
        nonlocal best_pts, nodes, exhausted
        nodes += 1
        if nodes > node_budget:
            exhausted = True
            return
        if len(current) > len(best_pts):
            best_pts = list(current)
        if len(best_pts) >= cap:
            return
        m = cands.size
        for i in range(m):
            if len(current) + (m - i) <= len(best_pts):
                return
            v = int(cands[i])
            current.append(v)
            extend(current, compatible(v, cands[i + 1:]))
            current.pop()
            if exhausted or len(best_pts) >= cap:
                return

    # the DFS recurses once per point, up to cap deep; raise the limit for
    # the search only, and never lower one the caller set
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, cap + 100))
    try:
        extend([], np.arange(volume, dtype=np.int64))
    finally:
        sys.setrecursionlimit(old_limit)
    pts = sorted(tuple(coords[i]) for i in best_pts)
    return SearchResult(size=len(pts), witness=PointSet(ctx, d, pts),
                        exact=not exhausted, nodes=nodes)

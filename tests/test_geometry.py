"""Point sets, norms, spheres, cones, distance sets."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqdist.geometry as geometry
from fqdist import (GenSpec, PointSet, cone_norm, distance_set,
                    enumerate_cone, enumerate_sphere_zero,
                    exhaustive_square_distance_max, generate, make_field,
                    norm, space_coords)
from fqdist.errors import (DimensionMismatchError, DimensionTooSmallError,
                           EmptySetError, EnumerationTooLargeError)
from fqdist.geometry import (norm_table, pack_coords, pack_weights,
                             unpack_coords)


# Full-matrix references that the library's distance_set replaced; they
# hold all n^2 differences at once, so keep them to small sets.

def pairwise_diff_packed(A):
    """(n, n) array of packed indices of x - y over ordered pairs of A."""
    X = A.coords
    diff = geometry._sub_elementwise(A.ctx, X[:, None, :], X[None, :, :])
    return diff @ pack_weights(A.ctx.q, A.d)


def pairwise_norms(A):
    """(n, n) array of element indices ||x - y|| over ordered pairs of A."""
    tab = norm_table(A.ctx, A.d)
    return tab[pairwise_diff_packed(A)]


def pinned_distance_set(x, A):
    """Delta_x(A) = {||x - a|| : a in A}."""
    if len(A) == 0:
        raise EmptySetError("pinned distance set of an empty point set")
    ctx = A.ctx
    x = tuple(x)
    if len(x) != A.d:
        raise DimensionMismatchError("pin has wrong dimension")
    sub = ctx.sub
    return {norm(ctx, tuple(sub(c, a) for c, a in zip(x, pt))) for pt in A}


def scalar_distance_set(A):
    """Delta(A) from scalar field arithmetic, pair by pair."""
    return set().union(*(pinned_distance_set(x, A) for x in A))


def test_pack_unpack_round_trip():
    ctx = make_field(7)
    coords = space_coords(ctx, 3)
    packed = pack_coords(ctx.q, coords)
    assert np.array_equal(packed, np.arange(7**3))
    assert np.array_equal(unpack_coords(ctx.q, 3, packed), coords)


def test_space_coords_enumerates_lexicographically():
    coords = space_coords(make_field(3), 2)
    assert coords.shape == (9, 2)
    assert [tuple(r) for r in coords[:4]] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert len({tuple(r) for r in coords}) == 9


class TestPointSet:

    def test_dedup_and_canonical_order(self):
        ctx = make_field(3)
        A = PointSet(ctx, 2, [(2, 1), (0, 0), (2, 1), (0, 2)])
        assert A.points == ((0, 0), (0, 2), (2, 1))
        assert len(A) == 3
        assert (2, 1) in A
        assert (1, 1) not in A

    def test_input_validation(self):
        ctx = make_field(3)
        with pytest.raises(DimensionMismatchError):
            PointSet(ctx, 2, [(1, 2, 0)])
        with pytest.raises(ValueError):
            PointSet(ctx, 2, [(1, 3)])  # coordinate outside [0, q)
        with pytest.raises(DimensionTooSmallError):
            PointSet(ctx, 0, [])

    def test_equality_and_hash(self):
        ctx = make_field(3)
        A = PointSet(ctx, 2, [(1, 2), (0, 1)])
        B = PointSet(ctx, 2, [(0, 1), (1, 2)])
        assert A == B
        assert hash(A) == hash(B)
        assert A != PointSet(ctx, 2, [(0, 1)])

    def test_translate_round_trip(self):
        ctx = make_field(5)
        A = PointSet(ctx, 2, [(0, 0), (1, 4), (2, 3)])
        t = (3, 2)
        back = tuple(ctx.neg(c) for c in t)
        assert A.translate(t).translate(back) == A
        assert A.translate((0, 0)) == A
        with pytest.raises(DimensionMismatchError):
            A.translate((1, 2, 3))


def test_norm_small_cases():
    ctx = make_field(3)
    assert norm(ctx, (0, 0)) == 0
    assert norm(ctx, (1, 2)) == 2      # 1 + 4 = 5 = 2 mod 3
    assert norm(ctx, (1, 1, 1)) == 0   # 3 = 0 mod 3
    ctx9 = make_field(3, 2)
    x = 3  # packed index of the adjoined root X; X^2 = -1 = index 2
    assert ctx9.mul(x, x) == 2
    assert norm(ctx9, (x,)) == 2


def test_norm_distributions_frozen():
    ctx3, ctx5 = make_field(3), make_field(5)
    assert Counter(norm_table(ctx3, 2).tolist()) == {0: 1, 1: 4, 2: 4}
    assert Counter(norm_table(ctx3, 3).tolist()) == {0: 9, 1: 6, 2: 12}
    assert Counter(norm_table(ctx5, 3).tolist()) == {
        0: 25, 1: 30, 2: 20, 3: 20, 4: 30}


def test_zero_sphere_sizes_and_membership():
    sizes = {(3, 1, 2): 1, (5, 1, 2): 9, (7, 1, 2): 1, (3, 2, 2): 17,
             (3, 1, 3): 9, (5, 1, 3): 25}
    for (p, ell, d), want in sizes.items():
        ctx = make_field(p, ell)
        S = enumerate_sphere_zero(ctx, d)
        assert len(S) == want
        assert (0,) * d in S
        assert all(norm(ctx, x) == 0 for x in S)


def test_cone_membership_and_sizes():
    ctx = make_field(3)
    for n, want in ((2, 5), (3, 9)):
        C = enumerate_cone(ctx, n)
        assert len(C) == want
        members = set(C.points)
        for pt in map(tuple, space_coords(ctx, n)):
            assert (pt in members) == (cone_norm(ctx, pt) == 0)
    with pytest.raises(DimensionTooSmallError):
        cone_norm(ctx, (1,))


def test_distance_sets():
    ctx = make_field(3)
    A = PointSet(ctx, 2, [(0, 0), (1, 0)])
    assert distance_set(A) == {0, 1}
    full = PointSet(ctx, 2, map(tuple, space_coords(ctx, 2)))
    assert distance_set(full) == {0, 1, 2}
    assert pinned_distance_set((0, 0), A) == {0, 1}
    assert pinned_distance_set((2, 2), full) <= distance_set(full)
    with pytest.raises(EmptySetError):
        distance_set(PointSet(ctx, 2, []))


@st.composite
def point_sets(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    ell = draw(st.sampled_from((1, 2)))
    d = draw(st.sampled_from((2, 3)))
    q = p**ell
    pts = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * d),
                        min_size=1, max_size=25))
    return PointSet(make_field(p, ell), d, pts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point_sets())
def test_distance_set_matches_scalar_oracle(A):
    assert distance_set(A) == scalar_distance_set(A)
    assert distance_set(A) == set(pairwise_norms(A).ravel().tolist())


def square_witness():
    """A square-distance set in F_7^3 with at least two points."""
    witness = exhaustive_square_distance_max(make_field(7), 3,
                                             node_budget=2000).witness
    assert len(witness) >= 2
    return witness


def test_distance_set_fixed_cases():
    ctx = make_field(7)
    assert distance_set(PointSet(ctx, 3, [(3, 1, 4)])) == {0}
    witness = square_witness()
    assert distance_set(witness) == scalar_distance_set(witness)
    assert all(ctx.eta(t) == 1 for t in distance_set(witness) - {0})
    plane = PointSet(ctx, 3, [(x, y, 0) for x in range(7) for y in range(7)])
    assert distance_set(plane) == set(range(7)) == scalar_distance_set(plane)


def scanned_blocks(monkeypatch):
    """Row counts of the difference blocks distance_set computes."""
    blocks = []
    real = geometry._sub_elementwise

    def recording(ctx, a, b):
        blocks.append(a.shape[0])
        return real(ctx, a, b)

    monkeypatch.setattr(geometry, "_sub_elementwise", recording)
    return blocks


def test_distance_set_stops_once_every_distance_is_seen(monkeypatch):
    ctx = make_field(17)
    sets = [generate(ctx, 3, GenSpec(kind="random", size=1156, seed=seed))
            for seed in range(5)]
    blocks = scanned_blocks(monkeypatch)
    for A in sets:
        blocks.clear()
        assert distance_set(A) == set(range(17))
        assert sum(blocks) < 16
        assert max(blocks) <= max(1, 2**21 // len(A))


def test_distance_set_scans_every_row_of_a_square_set(monkeypatch):
    witness = square_witness()
    blocks = scanned_blocks(monkeypatch)
    distance_set(witness)
    assert sum(blocks) == len(witness)
    assert max(blocks) <= max(1, 2**21 // len(witness))


def test_distance_set_blocks_stay_within_the_budget(monkeypatch):
    # n = 2^12 caps blocks at 2^21 // n = 512 rows, reached after the
    # 1, 2, ..., 256 doubling; the differences of 0..4095 in F_4099 cover
    # the line, whose norms t^2 miss every non-square, so all rows are
    # scanned
    ctx = make_field(4099)
    line = PointSet(ctx, 1, [(t,) for t in range(4096)])
    blocks = scanned_blocks(monkeypatch)
    assert distance_set(line) == {ctx.mul(t, t) for t in range(ctx.q)}
    assert sum(blocks) == 4096
    assert max(blocks) == 2**21 // 4096


def test_norm_histogram_is_translation_invariant():
    ctx = make_field(5)
    rng = np.random.default_rng(7)
    pts = [tuple(int(c) for c in row)
           for row in rng.integers(0, 5, size=(12, 3))]
    A = PointSet(ctx, 3, pts)
    base = Counter(pairwise_norms(A).ravel().tolist())
    for t in ((1, 0, 4), (2, 2, 2)):
        assert Counter(pairwise_norms(A.translate(t)).ravel().tolist()) == base


def test_distance_set_scales_by_squares():
    ctx = make_field(7)
    rng = np.random.default_rng(3)
    pts = [tuple(int(v) for v in row)
           for row in rng.integers(0, 7, size=(9, 2))]
    A = PointSet(ctx, 2, pts)
    for c in range(1, 7):
        scaled = PointSet(ctx, 2,
                          [tuple(ctx.mul(c, v) for v in pt) for pt in A])
        cc = ctx.mul(c, c)
        assert distance_set(scaled) == {ctx.mul(cc, t)
                                        for t in distance_set(A)}


def test_enumeration_cap():
    ctx = make_field(211)
    with pytest.raises(EnumerationTooLargeError):
        enumerate_sphere_zero(ctx, 4)  # 211^4 is past the desk-scale cap

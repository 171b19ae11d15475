"""Point-set factories and square-distance-set searches."""

import math
import sys

import pytest

from fqdist import (GenSpec, exhaustive_square_distance_max, generate,
                    greedy_square_distance_search, is_square_distance_set,
                    make_field, norm, product_lift, space_coords,
                    square_set_size_bound)
from fqdist.errors import (DimensionMismatchError, EnumerationTooLargeError,
                           InvalidBasisError, MissingSeedError,
                           SizeTooLargeError, UnsupportedCaseError)


def test_random_is_deterministic_in_the_seed():
    ctx = make_field(5)
    spec = GenSpec(kind="random", size=10, seed=42)
    A = generate(ctx, 2, spec)
    assert len(A) == 10
    assert A == generate(ctx, 2, spec)
    assert A != generate(ctx, 2, GenSpec(kind="random", size=10, seed=43))


def test_random_requires_seed_and_sane_size():
    ctx = make_field(5)
    with pytest.raises(MissingSeedError):
        generate(ctx, 2, GenSpec(kind="random", size=3))
    with pytest.raises(SizeTooLargeError):
        generate(ctx, 2, GenSpec(kind="random", size=26, seed=0))
    with pytest.raises(SizeTooLargeError):
        generate(ctx, 2, GenSpec(kind="random", size=0, seed=0))


def test_full_space():
    ctx = make_field(3)
    A = generate(ctx, 2, GenSpec(kind="full_space"))
    assert len(A) == 9
    assert A.points == tuple(map(tuple, space_coords(ctx, 2)))


def test_line():
    ctx = make_field(5)
    A = generate(ctx, 2, GenSpec(kind="line", direction=(1, 2),
                                 through=(3, 0)))
    assert len(A) == 5
    assert (3, 0) in A.points
    for x, y in A:
        # y - 0 = 2 * (x - 3) along the direction
        assert y == ctx.mul(2, ctx.sub(x, 3))
    with pytest.raises(InvalidBasisError):
        generate(ctx, 2, GenSpec(kind="line", direction=(0, 0)))
    with pytest.raises(InvalidBasisError):
        generate(ctx, 2, GenSpec(kind="line", direction=(1,)))


def test_subspace():
    ctx = make_field(3)
    A = generate(ctx, 3, GenSpec(kind="subspace",
                                 basis=((1, 0, 0), (0, 1, 1))))
    assert len(A) == 9
    assert (0, 0, 0) in A.points
    members = set(A.points)
    for x in members:  # closed under addition
        for y in members:
            assert tuple(ctx.add(a, b) for a, b in zip(x, y)) in members
    with pytest.raises(InvalidBasisError):
        generate(ctx, 3, GenSpec(kind="subspace", basis=()))


def test_sphere_slice():
    ctx = make_field(5)
    full = generate(ctx, 2, GenSpec(kind="sphere_slice", radius=1))
    assert all(norm(ctx, x) == 1 for x in full)
    assert len(full) == 4  # x^2 + y^2 = 1 has q - 1 solutions for q = 1 mod 4
    sliced = generate(ctx, 2, GenSpec(kind="sphere_slice", radius=1,
                                      size=2, seed=3))
    assert len(sliced) == 2
    assert set(sliced.points) <= set(full.points)
    assert sliced == generate(ctx, 2, GenSpec(kind="sphere_slice", radius=1,
                                              size=2, seed=3))
    with pytest.raises(MissingSeedError):
        generate(ctx, 2, GenSpec(kind="sphere_slice", radius=1, size=2))
    with pytest.raises(InvalidBasisError):
        generate(ctx, 2, GenSpec(kind="sphere_slice", radius=7))


def test_product_lift():
    ctx = make_field(3)
    A = generate(ctx, 2, GenSpec(kind="random", size=4, seed=1))
    E = product_lift(A)
    assert E.d == 3
    assert len(E) == len(A) * ctx.q
    assert set(E.points) == {pt + (s,) for pt in A for s in range(3)}
    via_spec = generate(ctx, 3, GenSpec(
        kind="product_lift", base=GenSpec(kind="random", size=4, seed=1)))
    assert via_spec == E


def test_file_kind(tmp_path):
    from fqdist import read_pointset, write_pointset
    ctx = make_field(3)
    A = generate(ctx, 2, GenSpec(kind="random", size=5, seed=8))
    path = tmp_path / "a.txt"
    write_pointset(A, path)
    assert generate(ctx, 2, GenSpec(kind="file", path=str(path))) == A
    with pytest.raises(DimensionMismatchError):
        generate(ctx, 3, GenSpec(kind="file", path=str(path)))
    with pytest.raises(InvalidBasisError):
        generate(ctx, 2, GenSpec(kind="file"))


def test_unknown_kind():
    with pytest.raises(InvalidBasisError):
        generate(make_field(3), 2, GenSpec(kind="pentagon"))


def test_greedy_search_postconditions():
    for p, d in ((3, 2), (5, 2), (3, 3)):
        ctx = make_field(p)
        A = greedy_square_distance_search(ctx, d, seed=0, restarts=10)
        assert is_square_distance_set(A)
        assert len(A) <= math.floor(square_set_size_bound(d, p))
    # same stream, same answer
    ctx = make_field(5)
    again = greedy_square_distance_search(ctx, 2, seed=0, restarts=10)
    assert again == greedy_square_distance_search(ctx, 2, seed=0,
                                                  restarts=10)


def test_greedy_attains_the_even_bound_in_the_25_point_plane():
    A = greedy_square_distance_search(make_field(5), 2, seed=0)
    assert len(A) == 5
    assert is_square_distance_set(A)


def test_exhaustive_maxima_small_spaces():
    r = exhaustive_square_distance_max(make_field(3), 2)
    assert (r.size, r.exact) == (3, True)
    assert is_square_distance_set(r.witness)
    r = exhaustive_square_distance_max(make_field(5), 2)
    assert (r.size, r.exact) == (5, True)
    r = exhaustive_square_distance_max(make_field(3), 3)
    assert (r.size, r.exact) == (4, True)
    assert len(r.witness) == 4


def test_exhaustive_search_restores_the_recursion_limit():
    before = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(5000)
        r = exhaustive_square_distance_max(make_field(3), 3)
        assert sys.getrecursionlimit() == 5000
    finally:
        sys.setrecursionlimit(before)
    assert (r.size, r.exact) == (4, True)


def test_exhaustive_budget_runs_out_gracefully():
    r = exhaustive_square_distance_max(make_field(5), 2, node_budget=3)
    assert not r.exact
    assert r.nodes >= 3
    assert 0 < r.size <= 5
    assert is_square_distance_set(r.witness)


def test_search_guards():
    with pytest.raises(UnsupportedCaseError):
        exhaustive_square_distance_max(make_field(3), 1)
    with pytest.raises(EnumerationTooLargeError):
        greedy_square_distance_search(make_field(7), 7, seed=0)
    with pytest.raises(EnumerationTooLargeError):
        exhaustive_square_distance_max(make_field(7), 7)

"""Point-set text files: round trips and malformed-input rejection."""

import numpy as np
import pytest

from fqdist import PointSet, make_field, read_pointset, write_pointset
from fqdist.errors import ParseError
from fqdist.geometry import unpack_coords


def roundtrip(A, path):
    write_pointset(A, path)
    return read_pointset(path)


def test_round_trip_prime_field(tmp_path):
    ctx = make_field(5)
    A = PointSet(ctx, 2, [(0, 0), (4, 1), (2, 3)])
    B = roundtrip(A, tmp_path / "a.txt")
    assert B == A
    assert B.ctx is ctx


def test_round_trip_extension_field(tmp_path):
    ctx = make_field(3, 2)
    picks = np.random.default_rng(0).permutation(81)[:20]
    A = PointSet(ctx, 2, map(tuple, unpack_coords(9, 2, picks)))
    assert roundtrip(A, tmp_path / "b.txt") == A


def test_round_trip_singleton_high_dimension(tmp_path):
    ctx = make_field(7)
    A = PointSet(ctx, 5, [(6, 0, 3, 1, 2)])
    assert roundtrip(A, tmp_path / "c.txt") == A


def test_comments_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(
        "# leading comment\n"
        "\n"
        "fq p=3 ell=1 d=2 mod=0,1  # trailing comment\n"
        "0,1\n"
        "   \n"
        "2,2  # a point\n")
    A = read_pointset(path)
    assert A.points == ((0, 1), (2, 2))
    assert A.ctx.q == 3


def write_lines(tmp_path, *lines):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_header_must_come_first(tmp_path):
    path = write_lines(tmp_path, "0,1", "fq p=3 ell=1 d=2 mod=0,1")
    with pytest.raises(ParseError, match="line 1"):
        read_pointset(path)


def test_header_token_errors(tmp_path):
    cases = [
        ("fq p=3 ell=1 d=2", "missing mod="),
        ("fq p=3 ell=1 d=2 bogus mod=0,1", "bad header token"),
        ("fq p=x ell=1 d=2 mod=0,1", "non-integer header value"),
        ("fq p=4 ell=1 d=2 mod=0,1", "cannot build field"),
    ]
    for header, message in cases:
        path = write_lines(tmp_path, header, "0,1")
        with pytest.raises(ParseError, match=message):
            read_pointset(path)


@pytest.mark.parametrize("d", [0, -1])
def test_header_dimension_below_one_rejected(tmp_path, d):
    path = write_lines(tmp_path, f"fq p=3 ell=1 d={d} mod=0,1", "0")
    with pytest.raises(ParseError, match=f"line 1.*d={d}"):
        read_pointset(path)


def test_non_canonical_modulus_rejected(tmp_path):
    # X^2 + X + 2 is irreducible over F_3 but not the canonical choice
    path = write_lines(tmp_path, "fq p=3 ell=2 d=1 mod=2,1,1", "4")
    with pytest.raises(ParseError, match="not the canonical"):
        read_pointset(path)


def test_point_line_errors(tmp_path):
    header = "fq p=3 ell=1 d=2 mod=0,1"
    path = write_lines(tmp_path, header, "0,1,2")
    with pytest.raises(ParseError, match="line 2.*expected 2"):
        read_pointset(path)
    path = write_lines(tmp_path, header, "0,1", "a,1")
    with pytest.raises(ParseError, match="line 3.*non-integer"):
        read_pointset(path)
    path = write_lines(tmp_path, header, "0,3")
    with pytest.raises(ParseError, match="out of range"):
        read_pointset(path)


def test_empty_inputs_rejected(tmp_path):
    path = write_lines(tmp_path, "# nothing here")
    with pytest.raises(ParseError, match="no header"):
        read_pointset(path)
    path = write_lines(tmp_path, "fq p=3 ell=1 d=2 mod=0,1")
    with pytest.raises(ParseError, match="no points"):
        read_pointset(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_pointset(tmp_path / "nope.txt")


def test_parse_error_carries_line_number(tmp_path):
    path = write_lines(tmp_path, "fq p=3 ell=1 d=2 mod=0,1", "9,9")
    with pytest.raises(ParseError) as err:
        read_pointset(path)
    assert err.value.line == 2

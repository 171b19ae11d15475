"""Text files for point sets.

Format: a header line

    fq p=<p> ell=<ell> d=<d> mod=<c0,c1,...,cl>

followed by one point per line as comma-separated element indices.
Blank lines and `#` comments are skipped.  The modulus in the header is
the canonical one for (p, ell); anything else is rejected so that the
packed element encoding in the file always means the same field element.
"""

from .errors import ParseError
from .field import make_field
from .geometry import PointSet


def write_pointset(A: PointSet, path):
    ctx = A.ctx
    mod = ",".join(str(c) for c in ctx.modulus)
    with open(path, "w") as fh:
        fh.write(f"# point set over F_{ctx.q}^{A.d}, {len(A)} points\n")
        fh.write(f"fq p={ctx.p} ell={ctx.ell} d={A.d} mod={mod}\n")
        for pt in A:
            fh.write(",".join(str(c) for c in pt) + "\n")


def _parse_header(line: str, lineno: int):
    tokens = line.split()
    if not tokens or tokens[0] != "fq":
        raise ParseError("header must start with 'fq'", line=lineno)
    fields = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ParseError(f"bad header token {tok!r}", line=lineno)
        key, value = tok.split("=", 1)
        fields[key] = value
    for key in ("p", "ell", "d", "mod"):
        if key not in fields:
            raise ParseError(f"header is missing {key}=", line=lineno)
    try:
        p = int(fields["p"])
        ell = int(fields["ell"])
        d = int(fields["d"])
        mod = tuple(int(c) for c in fields["mod"].split(","))
    except ValueError as exc:
        raise ParseError(f"non-integer header value ({exc})", line=lineno)
    if d < 1:
        raise ParseError(f"dimension d={d} must be at least 1", line=lineno)
    return p, ell, d, mod


def read_pointset(path) -> PointSet:
    with open(path) as fh:
        lines = fh.readlines()
    header = None
    points = []
    ctx = d = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            header = _parse_header(line, lineno)
            p, ell, d, mod = header
            try:
                ctx = make_field(p, ell)
            except Exception as exc:
                raise ParseError(f"cannot build field: {exc}", line=lineno)
            if mod != ctx.modulus:
                raise ParseError(
                    f"modulus {mod} is not the canonical {ctx.modulus} "
                    f"for p={p}, ell={ell}", line=lineno)
            continue
        parts = line.split(",")
        if len(parts) != d:
            raise ParseError(
                f"point has {len(parts)} coordinates, expected {d}",
                line=lineno)
        try:
            pt = tuple(int(c) for c in parts)
        except ValueError:
            raise ParseError(f"non-integer coordinate in {line!r}",
                             line=lineno)
        if not all(0 <= c < ctx.q for c in pt):
            raise ParseError(
                f"coordinate out of range 0..{ctx.q - 1} in {line!r}",
                line=lineno)
        points.append(pt)
    if header is None:
        raise ParseError("file has no header line")
    if not points:
        raise ParseError("file has no points")
    return PointSet(ctx, d, points)

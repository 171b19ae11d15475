"""Fault injection: with one ingredient of the spectral pipeline, of the
pair counts every per-set check shares, or of the field tables broken,
the checker reports a violation and exits 2 instead of passing or
crashing."""

import dataclasses
import json

import pytest

import fqdist.bounds as bounds
import fqdist.cli as cli
import fqdist.geometry as geometry
import fqdist.pairs as pairs
import fqdist.spectral as spectral
from fqdist import GenSpec, generate, make_field, write_pointset
from fqdist.characters import GaussSignPair
from fqdist.cli import main


def kernel_off_by_one(monkeypatch, rebind, p):
    real = spectral.kernels_for

    def corrupt(ctx, d):
        table = real(ctx, d)
        plus = table.plus.copy()
        plus[1] += 1  # norm 1 is a square, taken by many differences
        return dataclasses.replace(table, plus=plus)

    monkeypatch.setattr(spectral, "kernels_for", corrupt)
    monkeypatch.setattr(cli, "kernels_for", corrupt)


def gauss_signs_flipped(monkeypatch, rebind, p):
    real = pairs.gauss_signs

    def flipped(n, ctx):
        pair = real(n, ctx)
        return GaussSignPair(sigma=-pair.sigma, tau=-pair.tau)

    monkeypatch.setattr(pairs, "gauss_signs", flipped)


FAULTS = [kernel_off_by_one, gauss_signs_flipped]


def violated_checks(capsys):
    report = json.loads(capsys.readouterr().out)
    return {v["check"] for v in report["violations"]}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("p", [3, 7])
def test_verify_reports_injected_fault(fault, p, rebind, monkeypatch,
                                       capsys):
    fault(monkeypatch, rebind, p)
    code = main(["verify", "--p", str(p), "--d", "3", "--trials", "3",
                 "--size-min", "10", "--size-max", "20"])
    assert code == 2
    assert "oracle_equivalence" in violated_checks(capsys)


# Faults in the closed forms of the kernels and of the inner sums.  The
# DFT of the zero sphere and of the cone, the pair counts and the direct
# identity see the fault from outside the closed forms.

class EtaMinusOneFlipped:
    """A field context whose eta(-1) has the wrong sign."""

    def __init__(self, ctx):
        self._ctx = ctx

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def eta(self, a):
        sign = -1 if a == self._ctx.neg(1) else 1
        return sign * self._ctx.eta(a)


def kernel_eta_minus_one_flipped(monkeypatch, rebind, p):
    rebind(spectral, "kernels_for", lambda real: lambda ctx, d: (
        dataclasses.replace(real(EtaMinusOneFlipped(ctx), d), ctx=ctx)))


def kernel_plus_minus_swapped(monkeypatch, rebind, p):
    def swap(real):
        def swapped(ctx, d):
            table = real(ctx, d)
            zero, plus, minus = table.origin
            return dataclasses.replace(table, plus=table.minus,
                                       minus=table.plus,
                                       origin=(zero, minus, plus))
        return swapped

    rebind(spectral, "kernels_for", swap)


def inner_sum_gauss_negated(monkeypatch, rebind, p):
    # -G_1 in place of G_1 negates the tables of odd n only
    rebind(spectral, "_inner_sum_table",
           lambda real: lambda ctx, n, c: (-1)**n * real(ctx, n, c))


# (fault, p, d, checks that must fail).  The full space, such as all of
# F_3^2, would pass kernel_plus_minus_swapped: its spectrum is a point
# mass at the origin, where S_+ and S_- have no frequency
CLOSED_FORM_FAULTS = [
    (kernel_eta_minus_one_flipped, 7, 3,
     {"sphere_transform", "oracle_equivalence"}),
    (kernel_eta_minus_one_flipped, 5, 3,
     {"sphere_transform", "oracle_equivalence"}),
    (kernel_plus_minus_swapped, 7, 3, {"oracle_equivalence"}),
    (inner_sum_gauss_negated, 7, 2, {"cone_transform", "direct_identity"}),
]


@pytest.mark.parametrize("fault,p,d,names", CLOSED_FORM_FAULTS,
                         ids=[f"{f.__name__}-F{p}^{d}"
                              for f, p, d, _ in CLOSED_FORM_FAULTS])
def test_verify_reports_a_closed_form_fault(fault, p, d, names, rebind,
                                            monkeypatch, capsys):
    fault(monkeypatch, rebind, p)
    code = main(["verify", "--p", str(p), "--d", str(d), "--trials", "3",
                 "--size-min", "10", "--size-max", "20"])
    assert code == 2
    assert names <= violated_checks(capsys)


# Faults in what verify computes once per set and shares between checks.
# Each runs on the full space F_p^3: it has pairs at every distance, and
# it attains the sq + zr bound with equality, so a bound one too tight
# is violated.

def pair_counts_skewed(monkeypatch, rebind, p):
    def skew(real):
        def skewed(A):
            c = real(A)
            return pairs.PairCounts(sq=c.sq + 1, zr=c.zr - 1, nonsq=c.nonsq)
        return skewed

    rebind(pairs, "count_pairs", skew)


def sq_plus_zr_bound_off_by_one(monkeypatch, rebind, p):
    rebind(bounds, "bound_sq_plus_zr",
           lambda real: lambda d, q, size: real(d, q, size) - 1)


def eta_swapped_on_a_non_square(monkeypatch, rebind, p):
    ctx = make_field(p)  # the cached context verify will use
    eta = ctx.eta_table.copy()
    eta[int((eta == -1).argmax())] = 1
    monkeypatch.setattr(ctx, "eta_table", eta)


SHARED_INPUT_FAULTS = [
    (pair_counts_skewed, {"oracle_equivalence", "cone_lift"}),
    (sq_plus_zr_bound_off_by_one, {"bound_sq_plus_zr"}),
    (eta_swapped_on_a_non_square, {"cone_lift"}),
]


@pytest.mark.parametrize("fault,names", SHARED_INPUT_FAULTS,
                         ids=[f.__name__ for f, _ in SHARED_INPUT_FAULTS])
@pytest.mark.parametrize("p", [3, 7])
def test_verify_names_the_check_a_shared_input_breaks(fault, names, p,
                                                       rebind, monkeypatch,
                                                       capsys):
    fault(monkeypatch, rebind, p)
    code = main(["verify", "--p", str(p), "--d", "3", "--trials", "1",
                 "--size-min", str(p**3)])
    assert code == 2
    assert names <= violated_checks(capsys)


# analyze runs the same per-set checks: each fault above on a random
# 15-point set in F_7^3, each shared-input fault on the full space F_3^3
ANALYZE_FAULTS = (
    [(fault, 7, GenSpec(kind="random", size=15, seed=2),
      {"oracle_equivalence"}) for fault in FAULTS]
    + [(fault, 3, GenSpec(kind="full_space"), names)
       for fault, names in SHARED_INPUT_FAULTS])


@pytest.mark.parametrize("fault,p,spec,names", ANALYZE_FAULTS,
                         ids=[f.__name__ for f, *_ in ANALYZE_FAULTS])
def test_analyze_reports_injected_fault(fault, p, spec, names, tmp_path,
                                        rebind, monkeypatch, capsys):
    path = tmp_path / "set.txt"
    write_pointset(generate(make_field(p), 3, spec), path)
    fault(monkeypatch, rebind, p)
    assert main(["analyze", "--set", str(path)]) == 2
    assert names <= violated_checks(capsys)


@pytest.mark.parametrize("p", [3, 7])
def test_cached_field_is_intact_after_the_eta_fault(p):
    eta = make_field(p).eta_table
    assert (eta == 1).sum() == (eta == -1).sum() == (p - 1) // 2


# The cone lift must not share norm code with count_pairs.  With one
# entry of the cached norm table wrong, count_pairs and the spectral
# pipeline see the wrong norm, while a cone lift that builds its own
# cone from squares does not, so the two sides of the lift disagree.

@pytest.mark.parametrize("p,ell,d", [(7, 1, 3), (3, 2, 2)])
def test_cone_lift_does_not_read_the_norm_table(p, ell, d, monkeypatch,
                                                capsys):
    ctx = make_field(p, ell)
    table = geometry.norm_table(ctx, d).copy()
    # packed vector 1 is (0, ..., 0, 1): norm 1, a square
    table[1] = int((ctx.eta_table == -1).argmax())
    table.setflags(write=False)
    # a cone form read from the tables would be built from this one
    monkeypatch.setitem(geometry._NORM_TABLES, (p, ell, d), table)
    code = main(["verify", "--p", str(p), "--ell", str(ell), "--d", str(d),
                 "--trials", "1", "--size-min", str(ctx.q**d)])
    assert code == 2
    assert "cone_lift" in violated_checks(capsys)

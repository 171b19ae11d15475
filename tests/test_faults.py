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
    monkeypatch.setitem(geometry._NORM_TABLES, (p, ell, d), table)
    # a cone form read from the tables would be rebuilt from this one
    monkeypatch.setattr(geometry, "_CONE_TABLES", {})
    code = main(["verify", "--p", str(p), "--ell", str(ell), "--d", str(d),
                 "--trials", "1", "--size-min", str(ctx.q**d)])
    assert code == 2
    assert "cone_lift" in violated_checks(capsys)

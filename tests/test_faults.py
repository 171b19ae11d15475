"""Fault injection: with one ingredient of the spectral pipeline broken,
the checker reports a violation and exits 2 instead of passing or
crashing."""

import dataclasses
import json

import pytest

import fqdist.cli as cli
import fqdist.pairs as pairs
import fqdist.spectral as spectral
from fqdist import GenSpec, generate, make_field, write_pointset
from fqdist.characters import GaussSignPair
from fqdist.cli import main


def kernel_off_by_one(monkeypatch):
    real = spectral.kernels_for

    def corrupt(ctx, d):
        table = real(ctx, d)
        plus = table.plus.copy()
        plus[1] += 1  # norm 1 is a square, taken by many differences
        return dataclasses.replace(table, plus=plus)

    monkeypatch.setattr(spectral, "kernels_for", corrupt)
    monkeypatch.setattr(cli, "kernels_for", corrupt)


def gauss_signs_flipped(monkeypatch):
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
def test_verify_reports_injected_fault(fault, p, monkeypatch, capsys):
    fault(monkeypatch)
    code = main(["verify", "--p", str(p), "--d", "3", "--trials", "3",
                 "--size-min", "10", "--size-max", "20"])
    assert code == 2
    assert "oracle_equivalence" in violated_checks(capsys)


@pytest.mark.parametrize("fault", FAULTS)
def test_analyze_reports_injected_fault(fault, tmp_path, monkeypatch,
                                        capsys):
    path = tmp_path / "set.txt"
    write_pointset(generate(make_field(7), 3,
                            GenSpec(kind="random", size=15, seed=2)), path)
    fault(monkeypatch)
    assert main(["analyze", "--set", str(path)]) == 2
    assert "oracle_equivalence" in violated_checks(capsys)

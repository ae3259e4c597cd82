"""The tools the verify suites share, and the check counts the suites keep."""

import math
import re

import numpy as np
import pytest

from weyl_uncert import cli, families, reports, verify
from weyl_uncert.numerics import det3


def _synthetic_table():
    # [state, config]: state 0 config 1 has V = 0.36 over a 0.3 limit and
    # nothing else; state 1 config 0 has a negative Gram determinant and
    # functionals within their limits; the other two entries pass.
    a = np.array([[0.0, 0.6], [0.9, 0.0]], dtype=complex)
    cross = np.array([[0.0, 0.0], [-0.9, 0.0]], dtype=complex)
    return reports.CharSet(a, a, cross, 1.0 + 0j, np.zeros((2, 2)))


def test_table_check_names_the_one_functional_over_its_limit():
    res = verify.SuiteResult("synthetic")
    states = [np.array([1.0, 0.0]), np.array([0.6, 0.8])]
    least = verify._table_failures(res, _synthetic_table(), {"U": 2.0, "V": np.array([1.0, 0.3])},
                                   ["config 0", "config 1"], states)
    assert res.checks == 4
    v = float(reports.functionals(_synthetic_table())[3][0, 1])
    assert res.failures[0] == f"config 1: V={v!r} exceeds 0.3; amplitudes={verify._amps(states[0])}"
    det_plus, det_minus = (float(det3(g)) for g in reports.gram_pair(reports.CharSet(0.9, 0.9, -0.9, 1.0)))
    assert det_plus < verify._DET_TOL and det_minus < verify._DET_TOL
    assert res.failures[1] == (f"config 0: Gram determinant negative ({det_plus:.3e}, {det_minus:.3e}); "
                               f"amplitudes={verify._amps(states[1])}")
    assert len(res.failures) == 2
    assert least == min(det_plus, det_minus)


def test_table_check_reads_only_the_functionals_it_is_given():
    res = verify.SuiteResult("synthetic")
    limits = {"U'": 0.5, "U''": np.array([0.5, math.inf])}
    verify._table_failures(res, _synthetic_table(), limits, ["c0", "c1"], [np.array([1.0])] * 2)
    lines = [re.sub(r"; amplitudes=.*", "", msg) for msg in res.failures]
    assert res.checks == 4
    assert [line.split(": ")[0] for line in lines] == ["c1", "c0", "c0", "c0"]
    assert re.fullmatch(r"c1: U'=\S+ exceeds 0.5", lines[0])
    assert lines[1].startswith("c0: Gram determinant negative (")
    assert re.fullmatch(r"c0: U'=\S+ exceeds 0.5", lines[2])
    assert re.fullmatch(r"c0: U''=\S+ exceeds 0.5", lines[3])


def test_check_counts_once_fails_nan_and_formats_only_a_failure(monkeypatch):
    formatted = []
    monkeypatch.setattr(verify, "_amps", lambda vec: formatted.append(vec) or "[amps]")

    def text(off):
        formatted.append(off)
        return f"off {off!r}"

    res = verify.SuiteResult("synthetic")
    verify._check(res, 1e-13, 1e-12, text, np.ones(2))
    verify._check(res, 1e-12, 1e-12, text)
    assert res.checks == 2 and not res.failures and not formatted
    verify._check(res, math.nan, 1e-12, text, np.ones(2))
    verify._check(res, 2e-12, 1e-12, text)
    assert res.checks == 4
    assert res.failures == ["off nan; amplitudes=[amps]", "off 2e-12"]


def test_oracle_off_compares_all_four_fields():
    c = np.array([0.6, 0.8j])
    # s raises |0> to |1>, so its adjoint annihilates |0>, of weight pi_k = 0.36.
    f, s = np.diag([1.0, -1.0]).astype(complex), np.eye(2, k=-1, dtype=complex)
    exact = reports.CharSet(np.vdot(c, f @ c), np.vdot(c, s @ c), np.vdot(c, f.conj().T @ s @ c), 1.0, 0.36)
    ref = verify._dense_chars(c, f, s)
    assert verify._oracle_off(exact, *ref) <= 1e-15
    for name, value in (("number_char", exact.number_char + 1e-9), ("phase_char", exact.phase_char - 1e-9j),
                        ("cross_char", exact.cross_char + 1e-9), ("pi_k", 0.36 + 1e-9)):
        off = verify._oracle_off(reports.CharSet(**{**vars(exact), name: value}), *ref)
        assert off == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_suite_check_counts_at_100_samples(seed):
    results = verify.run("all", 100, seed)
    assert {r.name: (r.checks, r.failures) for r in results} == {
        "spin": (2609, []), "fock": (602, []), "families": (168, [])}


def test_one_list_of_suite_names():
    assert verify.SUITES == ("spin", "fock", "families", "all")
    with pytest.raises(ValueError, match=r"^unknown suite 'x'; expected spin, fock, families or all$"):
        verify.run("x", 1, 0)


def test_cli_suite_choices_are_verify_suites(monkeypatch, capsys):
    monkeypatch.setattr(verify, "SUITES", ("spin", "all"))
    cli._build_parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", "--suite", "fock", "--samples", "1", "--seed", "0"])
    finally:
        cli._build_parser.cache_clear()
    assert exit_info.value.code == 2
    assert "invalid choice: 'fock' (choose from 'spin', 'all')" in capsys.readouterr().err


def test_families_suite_builds_each_drawn_state_once(monkeypatch):
    # 50 phase-coherent, 25 Bessel, 12 Gaussian and 3 intermediate draws at --samples 100, each
    # state built once for its closed-form check and its residual or report check.
    build, built = families.build, []

    def counted(spec, *args, **kwargs):
        built.append(spec)
        return build(spec, *args, **kwargs)

    monkeypatch.setattr(families, "build", counted)
    assert verify.run_families(100, 1).checks == 168
    assert len(built) == 90

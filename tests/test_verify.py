"""The tools the verify suites share, and the check counts the suites keep."""

import dataclasses
import math
import re

import numpy as np
import pytest

from weyl_uncert import cli, families, fock, reports, spin, verify
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
    verify._table_failures(res, _synthetic_table(), {"U": 2.0, "V": np.array([1.0, 0.3])},
                           ["config 0", "config 1"], states)
    assert res.checks == 4
    v = float(reports.functionals(_synthetic_table())[3][0, 1])
    assert res.failures[0] == f"config 1: V={v!r} exceeds 0.3; amplitudes={verify._amps(states[0])}"
    det_plus, det_minus = (float(det3(g)) for g in reports.gram_pair(reports.CharSet(0.9, 0.9, -0.9, 1.0)))
    assert det_plus < verify._DET_TOL and det_minus < verify._DET_TOL
    assert res.failures[1] == (f"config 0: Gram determinant negative ({det_plus:.3e}, {det_minus:.3e}); "
                               f"amplitudes={verify._amps(states[1])}")
    assert len(res.failures) == 2
    assert res.stats == {"min_gram_det": min(det_plus, det_minus)}


@pytest.mark.parametrize("run", [verify.run_spin, verify.run_fock])
def test_min_gram_det_is_the_least_determinant_of_every_table_checked(run, monkeypatch):
    tables, check = [], verify._table_failures

    def recording(res, cs, *args):
        tables.append(cs)
        return check(res, cs, *args)

    monkeypatch.setattr(verify, "_table_failures", recording)
    res = run(24, 3)
    least = min(float(det3(g).min()) for cs in tables for g in reports.gram_pair(cs))
    assert len(tables) > 1 and float(res.stats["min_gram_det"]).hex() == least.hex()


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


def test_deviation_compares_all_four_fields():
    c = np.array([0.6, 0.8j])
    # s raises |0> to |1>, so its adjoint annihilates |0>, of weight pi_k = 0.36.
    f, s = np.diag([1.0, -1.0]).astype(complex), np.eye(2, k=-1, dtype=complex)
    exact = reports.CharSet(np.vdot(c, f @ c), np.vdot(c, s @ c), np.vdot(c, f.conj().T @ s @ c), 1.0, 0.36)
    ref = verify._dense_chars(c, f, s)
    assert reports.deviation(exact, *ref) <= 1e-15
    for name, value in (("number_char", exact.number_char + 1e-9), ("phase_char", exact.phase_char - 1e-9j),
                        ("cross_char", exact.cross_char + 1e-9), ("pi_k", 0.36 + 1e-9)):
        off = reports.deviation(reports.CharSet(**{**vars(exact), name: value}), *ref)
        assert off == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_suite_check_counts_at_100_samples(seed):
    results = verify.run("all", 100, seed)
    assert {r.name: (r.checks, r.failures) for r in results} == {
        "spin": (2609, []), "fock": (602, []), "families": (168, [])}


def test_dense_oracles_read_the_tables(monkeypatch):
    # A k <-> l transposed spin table and a fock table with conjugated cross chars pass every
    # Gram and bound check; the dense oracles catch both, at each pair k != l of k, l <= 3 per d
    # (2 at d = 2, 6 at each of the five larger d) and at k = 1, 2 of n_max 8 and 32.
    spin_table, fock_table = spin.char_table, fock.char_table
    monkeypatch.setattr(spin, "char_table", lambda amps: reports.CharSet(
        *(np.swapaxes(x, -1, -2) for x in vars(spin_table(amps)).values())))

    def conjugated_cross(stacks, k, phi):
        table, nbar = fock_table(stacks, k, phi)
        return dataclasses.replace(table, cross_char=table.cross_char.conj()), nbar

    monkeypatch.setattr(fock, "char_table", conjugated_cross)
    for seed in (1, 2, 3):
        spin_res, fock_res, families_res = verify.run("all", 100, seed)
        assert (spin_res.checks, fock_res.checks, families_res.checks) == (2609, 602, 168)
        assert len(spin_res.failures) == 32 and len(fock_res.failures) == 4
        for f in spin_res.failures + fock_res.failures:
            assert ": char set or table disagrees with dense oracle; amplitudes=" in f, f
        assert [f.split(":")[0] for f in spin_res.failures] == [
            f"spin d={d} k={k} l={l}" for d in (2, 3, 4, 5, 8, 16)
            for k in range(1, min(d, 3) + 1) for l in range(1, min(d, 3) + 1) if k != l]
        assert not families_res.failures


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



@pytest.mark.parametrize("u2, failing", [
    (0.5, ["0.25", "0.75"]),  # 0.125 off their weight sum 0.625
    (0.6, ["0.5"]),
    (1.0 + 1e-6, ["0.25", "0.5", "0.75"]),  # above 1, whatever the weight sum
    (math.nan, ["0.25", "0.5", "0.75"]),
])
def test_intermediate_u_double_prime_is_one_check_with_one_line(monkeypatch, u2, failing):
    checks = verify.run_families(8, 1).checks
    report = fock.report
    monkeypatch.setattr(fock, "report", lambda *a: dataclasses.replace(report(*a), u_double_prime=u2))
    res = verify.run_families(8, 1)
    assert res.checks == checks
    named = [re.match(r"families intermediate alpha2=(\S+): U''=", f).group(1) for f in res.failures]
    assert named == failing
    assert all(f"U''={u2!r} above 1 or " in f for f in res.failures)


@pytest.mark.parametrize("cap", ["256", "abc"])
def test_verify_ignores_the_truncation_cap_override(monkeypatch, cap):
    # At seed 3 the families suite builds a state at n_max 422; only the CLI reads the variable.
    want = verify.run("all", 5, 3)
    monkeypatch.setenv(families.TRUNCATION_CAP_ENV, cap)
    assert verify.run("all", 5, 3) == want

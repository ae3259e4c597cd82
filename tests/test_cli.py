"""CLI contract: exit codes, CSV header, envelope shape, determinism."""

import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

CSV_HEADER = "param,U,Uprime,Udoubleprime,V,absPhi,absPhiTilde,absOmega,Pik,nbar"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "weyl_uncert", *args],
        capture_output=True,
        text=True,
    )


def test_scan_csv_contract(tmp_path):
    out = tmp_path / "scan.csv"
    proc = run_cli(
        "scan", "--family", "phase-coherent:xi=0.49", "--param", "xi",
        "--from", "0.1", "--to", "0.9", "--steps", "5", "--k", "1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    first = [float(x) for x in lines[1].split(",")]
    assert len(first) == 10
    assert first[0] == 0.1


def test_scan_json_envelope(tmp_path):
    out = tmp_path / "scan.json"
    proc = run_cli(
        "scan", "--family", "bessel:lambda=1", "--param", "lambda",
        "--from", "0.5", "--to", "1.5", "--steps", "3", "--format", "json",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    assert doc["command"] == "scan"
    assert doc["parameters"]["phi_over_pi"] == 1.0
    assert len(doc["rows"]) == 3
    assert set(doc["rows"][0]) == set(CSV_HEADER.split(","))


def test_scan_default_phase_makes_k_phi_pi(tmp_path):
    out = tmp_path / "scan.json"
    proc = run_cli(
        "scan", "--family", "phase-coherent:xi=0.3", "--param", "xi",
        "--from", "0.2", "--to", "0.4", "--steps", "2", "--k", "4",
        "--format", "json", "--out", str(out),
    )
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["parameters"]["phi_over_pi"] == pytest.approx(0.25)


def test_invalid_family_spec_exits_2():
    proc = run_cli(
        "scan", "--family", "phase-coherent:zeta=0.5", "--param", "xi",
        "--from", "0.1", "--to", "0.9", "--steps", "3",
    )
    assert proc.returncode == 2
    assert "position" in proc.stderr


def test_verify_zero_samples_exits_2():
    proc = run_cli("verify", "--suite", "all", "--samples", "0")
    assert proc.returncode == 2


def test_verify_small_suite_passes():
    proc = run_cli("verify", "--suite", "spin", "--samples", "12", "--seed", "7")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "spin:" in proc.stdout
    assert "min_gram_det" in proc.stdout


def test_verify_deterministic_output():
    a = run_cli("verify", "--suite", "fock", "--samples", "9", "--seed", "3")
    b = run_cli("verify", "--suite", "fock", "--samples", "9", "--seed", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_figure_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("figure", "--id", "3", "--out", str(out1)).returncode == 0
    assert run_cli("figure", "--id", "3", "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == CSV_HEADER


def test_extremum_json():
    proc = run_cli(
        "extremum", "--family", "phase-coherent:xi=0.5", "--param", "xi",
        "--functional", "V", "--kind", "max", "--from", "0.05", "--to", "0.95",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    res = doc["result"]
    assert res["param"] == pytest.approx(0.486, abs=0.001)
    assert res["value"] == pytest.approx(0.300, abs=0.001)
    assert res["boundary"] is False
    assert res["bracket"] == [0.05, 0.95]


def test_qubit_report():
    proc = run_cli("qubit", "--sx", "0.7071", "--sy", "0", "--sz", "0.7071")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    rep = doc["report"]
    assert rep["U"] == pytest.approx(1.0, abs=1e-4)
    assert rep["V"] == pytest.approx(0.5, abs=1e-4)
    assert rep["bound"] == 1.0
    assert rep["gamma"] == pytest.approx(math.pi)
    assert rep["cross_char"] == [0.0, 0.0]
    assert doc["notes"], "the cross-term definition note must be present"
    assert "product form" in doc["notes"][0]


def test_qubit_cross_term_general_definition():
    proc = run_cli("qubit", "--sx", "0.3", "--sy", "0.5", "--sz", "0.4")
    doc = json.loads(proc.stdout)
    rep = doc["report"]
    assert rep["cross_char"] == [0.0, 0.5]  # i * s_y
    assert rep["cross_char_product_form"] == [0.0, pytest.approx(0.06)]  # i * sx sy sz
    assert rep["Uprime"] == pytest.approx(0.3**2 + 0.4**2 + 0.5**2)


def test_qubit_long_bloch_exits_2():
    proc = run_cli("qubit", "--sx", "1.0", "--sy", "0.5", "--sz", "0.0")
    assert_one_line_error(proc, "Bloch")
    assert "np.float64" not in proc.stderr
    assert "1.118033988749895" in proc.stderr


def assert_one_line_error(proc, needle):
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "error" in lines[0] and needle in lines[0]


def test_qubit_nan_exits_2():
    assert_one_line_error(run_cli("qubit", "--sx", "nan"), "finite")


def test_infinite_family_value_exits_2():
    proc = run_cli(
        "scan", "--family", "gaussian:nbar=inf,a=0.01", "--param", "a",
        "--from", "0.01", "--to", "0.02", "--steps", "2",
    )
    assert_one_line_error(proc, "non-finite")


def test_overflowing_gaussian_phase_exits_2_in_one_line():
    # b (n - nbar)^2 overflows on the lattice: rejected with the spec, not as
    # numpy warnings followed by a message about amplitudes.
    proc = run_cli(
        "scan", "--family", "gaussian:nbar=100,a=0.01,b=1e306", "--param", "a",
        "--from", "0.01", "--to", "0.02", "--steps", "2",
    )
    assert_one_line_error(proc, "invalid family spec: phase b (n - nbar)^2 must be finite")
    proc = run_cli(
        "extremum", "--family", "gaussian:nbar=100,a=0.01", "--param", "b",
        "--functional", "V", "--kind", "max", "--from", "0", "--to", "1e306",
    )
    assert_one_line_error(proc, "phase b (n - nbar)^2 must be finite")


def test_phi_over_pi_nan_exits_2():
    proc = run_cli(
        "scan", "--family", "phase-coherent:xi=0.5", "--param", "xi",
        "--from", "0.1", "--to", "0.2", "--steps", "2", "--phi-over-pi", "nan",
    )
    assert_one_line_error(proc, "finite")


@pytest.mark.parametrize("phi_over_pi, k", [("1e308", "1"), ("1e307", "10")])
def test_overflowing_phase_exits_2(phi_over_pi, k):
    # phi = 1e308*pi overflows; with k = 10 phi is finite but k*phi is not.
    proc = run_cli(
        "scan", "--family", "phase-coherent:xi=0.5", "--param", "xi",
        "--from", "0.1", "--to", "0.5", "--steps", "3", "--k", k, "--phi-over-pi", phi_over_pi,
    )
    assert_one_line_error(proc, "k*phi must be finite")


@pytest.mark.parametrize("phi_over_pi", [None, "0.5"], ids=["default-phase", "phi-over-pi"])
@pytest.mark.parametrize("command", [
    ["scan", "--steps", "2"],
    ["extremum", "--functional", "V", "--kind", "max"],
], ids=["scan", "extremum"])
def test_k_too_large_for_a_float_exits_2(command, phi_over_pi):
    # 1/k or k*phi would overflow converting k to a float.
    args = [*command, "--family", "phase-coherent:xi=0.5", "--param", "xi",
            "--from", "0.1", "--to", "0.2", "--k", str(10**399)]
    if phi_over_pi is not None:
        args += ["--phi-over-pi", phi_over_pi]
    proc = run_cli(*args)
    assert_one_line_error(proc, "--k out of range")
    assert "400-digit k" in proc.stderr


def test_log_spaced_scan_with_nonpositive_start_exits_2():
    proc = run_cli(
        "scan", "--family", "phase-coherent:xi=0.5", "--param", "xi",
        "--from", "-0.5", "--to", "0.5", "--steps", "3", "--log-spaced",
    )
    assert_one_line_error(proc, "log-spaced grid needs lo > 0, got -0.5")


def test_out_of_range_alpha2_prints_a_plain_float():
    proc = run_cli(
        "scan", "--family", "intermediate:alpha2=0.5,n=3,xi=0.5", "--param", "alpha2",
        "--from", "0", "--to", "2", "--steps", "3",
    )
    assert_one_line_error(proc, "alpha2 must lie in [0, 1], got 2.0")
    assert "np.float64" not in proc.stderr


@pytest.mark.parametrize("spec", ["number:n=3", "intermediate:alpha2=0.5,n=3,xi=0.5"])
def test_scan_over_n_rejects_a_non_integer_grid(spec):
    # The grid 0, 1.25, 2.5 must not be rounded to other states than the rows report.
    proc = run_cli(
        "scan", "--family", spec, "--param", "n", "--from", "0", "--to", "2.5", "--steps", "3",
    )
    assert_one_line_error(proc, "n must be an integer")


def test_scan_over_n_on_an_integer_grid_reports_the_state_it_evaluates():
    proc = run_cli(
        "scan", "--family", "number:n=3", "--param", "n", "--from", "0", "--to", "2", "--steps", "3",
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert [(float(r[0]), float(r[-1])) for r in rows] == [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]


def test_extremum_over_n_rejects_non_integer_points():
    proc = run_cli(
        "extremum", "--family", "number:n=3", "--param", "n",
        "--functional", "V", "--kind", "max", "--from", "0", "--to", "3",
    )
    assert_one_line_error(proc, "n must be an integer")


def test_negative_e_notation_is_a_value():
    proc = run_cli("qubit", "--sx", "0.1", "--sy", "0.2", "--sz", "-5e-05")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["parameters"]["sz"] == -5e-05
    assert doc["report"]["number_char"] == [-5e-05, 0.0]


def test_negative_e_notation_range_start():
    proc = run_cli(
        "scan", "--family", "phase-coherent:xi=0.5", "--param", "xi",
        "--from", "-1e-3", "--to", "0.5", "--steps", "3", "--format", "json",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["parameters"]["from"] == -1e-3
    assert doc["rows"][0]["param"] == -1e-3


def test_unallocatable_scan_grid_exits_2():
    # numpy refuses the 800 TB grid up front, before any memory is touched.
    proc = run_cli(
        "scan", "--family", "phase-coherent:xi=0.5", "--param", "xi",
        "--from", "0.1", "--to", "0.5", "--steps", "100000000000000",
    )
    assert_one_line_error(proc, "allocate")


@pytest.mark.parametrize("lo, hi", [("0.9", "0.1"), ("0.5", "0.5")])
def test_extremum_reversed_or_empty_range_exits_2(lo, hi):
    proc = run_cli(
        "extremum", "--family", "phase-coherent:xi=0.5", "--param", "xi",
        "--functional", "V", "--kind", "max", "--from", lo, "--to", hi,
    )
    assert_one_line_error(proc, "need lo < hi")


def test_truncation_cap_error_prints_huge_n_max_compactly():
    proc = run_cli(
        "scan", "--family", "gaussian:nbar=1e308,a=0.01", "--param", "a",
        "--from", "0.01", "--to", "0.02", "--steps", "2",
    )
    assert_one_line_error(proc, "WEYL_UNCERT_MAX_NMAX")
    assert len(proc.stderr.splitlines()[0]) <= 200
    assert "n_max = 1e+308" in proc.stderr


def test_truncation_cap_error_prints_a_400_digit_count_compactly():
    proc = run_cli(
        "scan", "--family", f"intermediate:alpha2=0.5,n={10**399},xi=0.5", "--param", "xi",
        "--from", "0.1", "--to", "0.2", "--steps", "2",
    )
    assert_one_line_error(proc, "n_max = 1e+399 but the cap is")
    assert len(proc.stderr.splitlines()[0]) <= 200


def test_truncation_cap_error_keeps_ordinary_n_max_exact():
    proc = run_cli(
        "scan", "--family", "phase-coherent:xi=0.999", "--param", "xi",
        "--from", "0.998", "--to", "0.999", "--steps", "2",
    )
    assert_one_line_error(proc, "n_max = 8051 but the cap is 4096")


def test_help_lists_every_family_and_its_keys():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for line in ("number: n", "phase-coherent: xi", "gaussian: nbar, a, b", "bessel: lambda",
                 "intermediate: alpha2, n, xi"):
        assert f"  {line}\n" in proc.stdout


def test_usage_error_exits_2():
    proc = run_cli("figure", "--id", "9")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "option, value", [("--samples", "abc"), ("--samples", "2.5"), ("--seed", "-3"), ("--seed", "x")]
)
def test_bad_integer_option_names_the_option(option, value):
    proc = run_cli("verify", "--suite", "all", option, value)
    assert_one_line_error(proc, f"argument {option}: must be a ")
    assert repr(value) in proc.stderr
    assert "_positive_int" not in proc.stderr


def test_out_in_a_missing_directory_names_the_given_path(tmp_path):
    out = tmp_path / "missing-dir" / "x.csv"
    proc = run_cli("figure", "--id", "1", "--out", str(out))
    assert_one_line_error(proc, str(out))
    assert ".weyl-uncert-" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_out_onto_a_directory_names_the_given_path(tmp_path):
    out = tmp_path / "taken"
    out.mkdir()
    proc = run_cli("qubit", "--sx", "0.3", "--out", str(out))
    assert_one_line_error(proc, str(out))
    assert ".weyl-uncert-" not in proc.stderr
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


def figure_csv():
    return run_cli("figure", "--id", "1").stdout


def test_kept_tables_never_leak_between_commands(tmp_path, monkeypatch):
    # One process: figure 1 (phi = pi), figure 2 (phi = pi / 16), a phi = pi
    # scan at a larger n_max, figure 1 again.  The kept phase and xi^n tables
    # change in between; the figures must not, and must match a fresh process.
    from weyl_uncert import cli

    def run(*argv):
        out = tmp_path / "out.txt"
        assert cli.main([*argv, "--out", str(out)]) == 0
        return out.read_text()

    first = run("figure", "--id", "1")
    assert run("figure", "--id", "2") == run_cli("figure", "--id", "2").stdout
    monkeypatch.setenv("WEYL_UNCERT_MAX_NMAX", "20000")
    run("scan", "--family", "phase-coherent:xi=0.999", "--param", "xi",
        "--from", "0.99", "--to", "0.999", "--steps", "3")
    monkeypatch.delenv("WEYL_UNCERT_MAX_NMAX")
    assert run("figure", "--id", "1") == first == figure_csv()


def test_the_parser_built_once_keeps_no_state(tmp_path, capsys):
    # cli.main builds its parser once per process; a usage error and --help
    # on it must leave later commands as a fresh process runs them.
    from weyl_uncert import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["figure", "--id", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()
    scan = ("scan", "--family", "phase-coherent:xi=0.49", "--param", "xi", "--from", "0.01",
            "--to", "0.995", "--steps", "9", "--format", "json")
    for argv in (("figure", "--id", "1"), scan):
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == run_cli(*argv).stdout


def test_csv_rows_format_each_value_as_before():
    # One format call per row gives each value's own f"{float(v):.17g}".
    from weyl_uncert import analysis, cli

    values = [(-0.0, 5e-324, 1e308, 3, -1, 0.1, 2.0**-1074, -1e-308, 1.0 / 3.0, 0),
              (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
              (math.pi, -math.e, 1e16, 123456789012345678, 1e-5, 0.5, 1e300 * 10, -5e-324, 2.5, 0.0),
              (np.float64(0.1), np.int64(7), np.float32(0.1), np.float64(-0.0), *(0.25,) * 6)]
    rows = tuple(analysis.ScanRow(*v) for v in values)
    table = analysis.ScanTable("number:n=0", "n", 1, math.pi, rows)
    old = "\n".join([CSV_HEADER, *(",".join(f"{float(x):.17g}" for x in v) for v in values)]) + "\n"
    assert cli._table_csv(table) == old
    assert cli._table_csv(analysis.ScanTable("number:n=0", "n", 1, math.pi, ())) == CSV_HEADER + "\n"


def test_out_through_a_symlink_writes_its_target(tmp_path):
    target = tmp_path / "real.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to("real.csv")
    dangling = tmp_path / "dangling.csv"
    dangling.symlink_to("new.csv")
    for out in (link, dangling):
        assert run_cli("figure", "--id", "1", "--out", str(out)).returncode == 0
        assert out.is_symlink()
    assert target.read_text() == (tmp_path / "new.csv").read_text() == figure_csv()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dangling.csv", "link.csv", "new.csv", "real.csv"]


def test_out_to_a_fifo_writes_in_place(tmp_path):
    from weyl_uncert import cli

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert cli.main(["figure", "--id", "1", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [figure_csv()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_out_gives_a_new_file_the_umask_mode(tmp_path, umask):
    from weyl_uncert import cli

    out = tmp_path / "new.csv"
    old = os.umask(umask)
    try:
        assert cli.main(["figure", "--id", "1", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_out_keeps_an_existing_files_mode(tmp_path):
    from weyl_uncert import cli

    out = tmp_path / "old.csv"
    out.write_text("old\n")
    out.chmod(0o644)
    old = os.umask(0o077)
    try:
        assert cli.main(["figure", "--id", "1", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644
    assert out.read_text() == figure_csv()


def test_scan_evaluates_k_above_a_states_own_truncation():
    # At xi = 0.1 the family keeps levels up to 16 only; E^20 psi = 0 there.
    proc = run_cli("scan", "--family", "phase-coherent:xi=0.5", "--param", "xi",
                   "--from", "0.1", "--to", "0.9", "--steps", "9", "--k", "20")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 9
    first = dict(zip(CSV_HEADER.split(","), map(float, rows[0].split(","))))
    assert (first["absPhiTilde"], first["absOmega"], first["Pik"]) == (0.0, 0.0, 1.0)
    # Rounding of a sum of probabilities must not print a Pik above 1 (it did at xi = 0.2).
    assert all(float(row.split(",")[CSV_HEADER.split(",").index("Pik")]) <= 1.0 for row in rows)


@pytest.mark.parametrize("command", [
    ("figure", "--id", "1"),
    ("extremum", "--family", "phase-coherent:xi=0.5", "--param", "xi",
     "--functional", "V", "--kind", "max", "--from", "0.1", "--to", "0.9"),
])
def test_bad_truncation_cap_override_is_not_blamed_on_a_row(command):
    proc = subprocess.run(
        [sys.executable, "-m", "weyl_uncert", *command],
        capture_output=True,
        text=True,
        env={**os.environ, "WEYL_UNCERT_MAX_NMAX": "abc"},
    )
    assert_one_line_error(proc, "WEYL_UNCERT_MAX_NMAX")
    assert proc.stderr.startswith("error: WEYL_UNCERT_MAX_NMAX must be an integer >= 16")


def test_verify_run_returns_suite_results():
    from weyl_uncert import verify

    results = verify.run("all", 6, 2)
    assert [r.name for r in results] == ["spin", "fock", "families"]
    assert all(r.checks > 0 and r.passed for r in results)
    with pytest.raises(ValueError, match="suite"):
        verify.run("nonsense", 6, 2)


def test_verify_failure_exits_1(monkeypatch, capsys):
    from weyl_uncert import cli, verify

    def fake_run(suite, samples, seed):
        return [verify.SuiteResult("spin", checks=1, failures=["synthetic violation"])]

    monkeypatch.setattr(verify, "run", fake_run)
    code = cli.main(["verify", "--suite", "spin", "--samples", "1", "--seed", "0"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL: synthetic violation" in out


@pytest.mark.parametrize("argv, needle", [
    (["qubit", "--sx", "1e200"], "|s| = 1e+200"),
    (["scan", "--family", "phase-coherent:xi=0.5", "--param", "xi", "--from", "-1e308",
      "--to", "1e308", "--steps", "3"], "finite width hi - lo, got lo = -1e+308, hi = 1e+308"),
    (["extremum", "--family", "number:n=3", "--param", "n", "--functional", "U", "--kind", "min",
      "--from", "-1e308", "--to", "1e308"], "finite width hi - lo, got lo = -1e+308, hi = 1e+308"),
])
def test_overflowing_input_exits_2_without_a_warning(argv, needle, capsys):
    # Under warnings-as-errors a numpy overflow warning would escape as a traceback.
    from weyl_uncert import cli

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and needle in err, err

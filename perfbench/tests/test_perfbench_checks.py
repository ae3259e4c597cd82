"""Output checks: a wrong output or a raising op must count as a failed op."""

import math
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import workloads
from harness import CheckFailed, CliOutput
from weyl_uncert import analysis, families, spin


def _failed_ratio(res: harness.PassResult) -> float:
    return len(res.failures) / res.attempted


def test_figures_pass_is_clean(tmp_path: Path):
    res = harness.run_pass(workloads.make("figures", 1, 0, tmp_path).pass_ops())
    assert res.failures == []
    assert res.attempted == len(workloads.FIGURES_COMMANDS)
    # 199 + 160 + 151 + 146 figure rows, 99 scan rows, 67 + 22 extremum evaluations
    assert res.work == 199 + 160 + 151 + 146 + 99 + 67 + 22


def test_injected_wrong_output_raises_failed_ratio(tmp_path: Path, monkeypatch):
    real = analysis.figure_dataset

    def off_by_1e6(figure_id, max_nmax=None):
        table = real(figure_id, max_nmax)
        rows = (replace(table.rows[0], u=table.rows[0].u + 1e-6), *table.rows[1:])
        return replace(table, rows=rows)

    monkeypatch.setattr(analysis, "figure_dataset", off_by_1e6)
    res = harness.run_pass(workloads.make("figures", 1, 0, tmp_path).pass_ops())
    assert _failed_ratio(res) == pytest.approx(4 / 6)
    assert all("row 1 U" in msg for msg in res.failures)


def test_injected_exception_raises_failed_ratio(tmp_path: Path, monkeypatch):
    def broken(*_args, **_kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(analysis, "find_extremum", broken)
    res = harness.run_pass(workloads.make("figures", 1, 0, tmp_path).pass_ops())
    assert res.failures == ["extremum_bessel: raised ArithmeticError: injected"]
    assert _failed_ratio(res) == pytest.approx(1 / 6)


def test_small_drift_within_tolerance_passes():
    ref = "param,U\n0.5,0.25\n"
    assert harness.compare_csv("param,U\n0.5,0.2500000000005\n", ref) is None
    assert harness.compare_csv("param,U\n0.5,0.250000002\n", ref) is not None
    assert harness.compare_json({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]}) is None
    assert harness.compare_json({"a": [1.0, "y"]}, {"a": [1.0, "x"]}) is not None


def _large_ops(tmp_path: Path, monkeypatch, prefix: str):
    # The large workload sets the n_max cap in its process; undo that after the test.
    monkeypatch.setenv(families.TRUNCATION_CAP_ENV, "4096")
    wl = workloads.make("large", 1, 0, tmp_path)
    return [op for op in wl.pass_ops() if op.name.startswith(prefix)]


def test_large_spin_invariants_catch_a_bound_violation(tmp_path: Path, monkeypatch):
    ops = _large_ops(tmp_path, monkeypatch, "spin_report_d256")
    assert harness.run_pass(ops).failures == []
    real = spin.report
    monkeypatch.setattr(spin, "report", lambda *a: replace(real(*a), u=real(*a).bound + 1e-6))
    res = harness.run_pass(ops)
    assert _failed_ratio(res) == 1.0


def test_large_weyl_and_cyclic_checks(tmp_path: Path, monkeypatch):
    ops = [op for op in _large_ops(tmp_path, monkeypatch, "")
           if op.name in ("cyclic_phase_d256", "weyl_defect_d1024")]
    assert harness.run_pass(ops).failures == []
    monkeypatch.setattr(spin, "weyl_defect", lambda *a: 1e-11)
    monkeypatch.setattr(spin, "cyclic_phase", lambda *a: complex(math.nan))
    assert _failed_ratio(harness.run_pass(ops)) == 1.0


def test_verify_check_requires_exit_zero_and_the_fixed_counts(tmp_path: Path):
    (op,) = workloads.make("verify", 1, 0, tmp_path).pass_ops()
    good = "".join(f"{name}: {n} checks, 0 failures [ok]\n"
                   for name, n in workloads.VERIFY_COUNTS.items())
    assert op.check(CliOutput(0, good, "")) == sum(workloads.VERIFY_COUNTS.values())
    with pytest.raises(CheckFailed):
        op.check(CliOutput(1, good, ""))
    with pytest.raises(CheckFailed):
        op.check(CliOutput(0, good.replace("2609", "2608"), ""))

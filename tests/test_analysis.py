"""Scans, extremum search and figure datasets."""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy import optimize

from weyl_uncert import analysis, families, fock
from weyl_uncert.analysis import ExtremumResult, figure_dataset, find_extremum, scan
from weyl_uncert.families import BesselEigenstate, GaussianNumber, NumberState, PhaseCoherent


def u_argmin_t():
    """Calculus oracle for the phase-coherent sum functional: with
    t = |xi|^2 the minimum satisfies (1+t)^3 = 4(1-t)."""
    return optimize.brentq(lambda t: (1 + t) ** 3 - 4 * (1 - t), 0.1, 0.9, xtol=1e-14)


def test_scan_phase_coherent_basics():
    table = scan(PhaseCoherent(0.5), "xi", 0.01, 0.99, 99, 1, math.pi)
    assert len(table.rows) == 99
    params = table.params()
    assert np.all(np.diff(params) > 0)
    assert params[0] == 0.01 and params[-1] == 0.99
    for row in table.rows:
        assert row.u <= 1.0 + 1e-9
        assert row.u_prime <= 1.0 + 1e-9
        assert row.u_double_prime <= 1.0 + 1e-9
        assert row.v <= 0.5 + 1e-9
    # interior minimum of U near the calculus-oracle location
    xi_star = math.sqrt(u_argmin_t())
    grid_min = params[int(np.argmin(table.column("u")))]
    assert grid_min == pytest.approx(xi_star, abs=0.02)


def test_scan_number_family_degenerate():
    table = scan(NumberState(0), "n", 0.0, 5.0, 6, 1, math.pi)
    assert [row.param for row in table.rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    for row in table.rows:
        assert row.u == pytest.approx(1.0, abs=1e-12)
        assert row.v == 0.0


def test_scan_log_spacing():
    table = scan(GaussianNumber(400.0, 0.01, 0.0), "a", 1e-3, 1e-2, 7, 4, math.pi / 4,
                 log_spaced=True)
    ratios = np.diff(np.log(table.params()))
    assert np.allclose(ratios, ratios[0])


def test_scan_validation():
    with pytest.raises(ValueError, match="steps"):
        scan(PhaseCoherent(0.5), "xi", 0.1, 0.9, 1, 1, math.pi)
    with pytest.raises(ValueError, match="lo < hi"):
        scan(PhaseCoherent(0.5), "xi", 0.9, 0.1, 5, 1, math.pi)
    with pytest.raises(ValueError, match="build failed at xi"):
        scan(PhaseCoherent(0.5), "xi", 0.5, 1.5, 5, 1, math.pi)
    for lo in (-0.5, 0.0):
        with pytest.raises(ValueError, match="log-spaced grid needs lo > 0"):
            scan(PhaseCoherent(0.5), "xi", lo, 0.5, 3, 1, math.pi, log_spaced=True)


def test_find_extremum_product_maximum():
    res = find_extremum(PhaseCoherent(0.5), "xi", "V", "max", 0.05, 0.95, 1, math.pi)
    assert isinstance(res, ExtremumResult)
    assert res.param == pytest.approx(0.486, abs=0.001)
    assert res.param**2 == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-3)
    assert res.value == pytest.approx(0.300, abs=0.001)
    assert not res.boundary
    assert res.bracket == (0.05, 0.95)
    assert res.iterations > 10


def test_find_extremum_agrees_with_dense_grid():
    table = scan(PhaseCoherent(0.5), "xi", 0.3, 0.9, 64, 1, math.pi)
    grid_best = table.params()[int(np.argmin(table.column("u")))]
    res = find_extremum(PhaseCoherent(0.5), "xi", "U", "min", 0.3, 0.9, 1, math.pi)
    cell = (0.9 - 0.3) / 63
    assert abs(res.param - grid_best) <= cell


def test_find_extremum_boundary_flag():
    # U decreases toward the left edge of [0.7, 0.9] (minimum is at ~0.604).
    res = find_extremum(PhaseCoherent(0.5), "xi", "U", "min", 0.7, 0.9, 1, math.pi)
    assert res.boundary
    assert res.param == pytest.approx(0.7, abs=0.01)


def test_find_extremum_validation():
    with pytest.raises(ValueError, match="functional"):
        find_extremum(PhaseCoherent(0.5), "xi", "W", "min", 0.1, 0.9, 1, math.pi)
    with pytest.raises(ValueError, match="kind"):
        find_extremum(PhaseCoherent(0.5), "xi", "U", "extremum", 0.1, 0.9, 1, math.pi)


def test_figure1_dataset():
    table = figure_dataset(1)
    assert table.swept_parameter == "xi"
    assert len(table.rows) == 199
    u = table.column("u")
    v = table.column("v")
    nbar = table.column("nbar")
    # sum functional: high at both ends, dips in between
    assert u[0] > 0.99 and u[-1] > 0.98
    assert np.min(u) < 0.85
    assert nbar[int(np.argmin(u))] == pytest.approx(0.574, abs=0.05)
    # product functional: vanishes at the ends, peaks strictly inside
    assert v[0] < 0.02 and v[-1] < 0.05
    peak = int(np.argmax(v))
    assert 0 < peak < len(v) - 1
    assert np.max(v) == pytest.approx(0.300, abs=0.002)


def test_figure3_dataset():
    table = figure_dataset(3)
    assert table.swept_parameter == "b"
    b = table.params()
    u = table.column("u")
    up = table.column("u_prime")
    at_zero = int(np.argmin(np.abs(b)))
    # the plain and extended sums overlap around b = 0
    assert abs(u[at_zero] - up[at_zero]) < 1e-2
    # revival of the extended sum near b = pi/2
    peak = int(np.argmax(up[b > 0.5])) + int(np.sum(b <= 0.5))
    assert b[peak] == pytest.approx(math.pi / 2, abs=0.05)
    assert up[peak] > 0.9


def test_figure4_dataset():
    table = figure_dataset(4)
    lam = table.params()
    assert table.swept_parameter == "lambda"
    u = table.column("u")
    assert lam[int(np.argmin(u))] == pytest.approx(0.77, abs=0.05)
    up = table.column("u_prime")
    assert lam[int(np.argmin(up))] == pytest.approx(0.88, abs=0.05)


def test_figure_dataset_unknown_id():
    with pytest.raises(ValueError, match="figure id"):
        figure_dataset(5)


def test_figure2_dataset():
    table = figure_dataset(2)
    assert table.swept_parameter == "ak2"
    x = table.params()
    assert x[0] == pytest.approx(0.05, rel=1e-9)
    assert x[-1] == pytest.approx(20.0, rel=1e-9)
    u = table.column("u")
    # certainty approaches its bound at both ends of the axis, dips between
    assert u[0] > 0.85 and u[-1] > 0.85
    interior = int(np.argmin(u))
    assert 0 < interior < len(u) - 1
    assert u[interior] < 0.45
    assert x[interior] == pytest.approx(math.pi / 2, rel=0.08)


def _bits(row):
    return [float(v).hex() for v in astuple(row)]


def _assert_rows_equal_single_rows(template, name, values, k, phi, cap=4096):
    rows = analysis._rows_at(template, name, values, k, phi, cap)
    assert len(rows) == len(values)
    for x, row in zip(values, rows):
        assert _bits(row) == _bits(analysis._row_at(template, name, x, k, phi, cap)), x


def _recorded_tables(monkeypatch):
    seen = []
    char_table = fock.char_table

    def recording(amps, k, phi):
        seen.append(amps)
        return char_table(amps, k, phi)

    monkeypatch.setattr(fock, "char_table", recording)
    return seen


@pytest.mark.parametrize("figure_id", [1, 2, 3, 4])
def test_grid_rows_equal_single_rows_on_every_figure(figure_id, monkeypatch):
    seen = _recorded_tables(monkeypatch)
    template, name, lo, hi, steps, k, log_spaced = analysis._FIGURES[figure_id]
    grid = analysis._grid(lo, hi, steps, log_spaced)
    _assert_rows_equal_single_rows(template, name, grid, k, math.pi / k)
    assert all(a.nbytes <= analysis._RUN_BYTES for a in seen if len(a) > 1)


def test_grid_rows_equal_single_rows_on_the_extremum_coarse_grid():
    grid = analysis._grid(0.4, 1.4, analysis._COARSE_POINTS)
    _assert_rows_equal_single_rows(BesselEigenstate(1.0), "lambda", grid, 1, math.pi)


def test_grid_rows_equal_single_rows_where_n_max_rises_and_falls():
    values = np.array([0.1, 0.5, 0.9, 0.9, 0.5, 0.1, 0.1, 0.95, 0.3])
    nmax = [families.build(PhaseCoherent(x)).n_max for x in values]
    assert nmax[2] > nmax[1] > nmax[0] and nmax[7] > nmax[6]
    _assert_rows_equal_single_rows(PhaseCoherent(0.5), "xi", values, 2, math.pi / 2)


def test_a_lone_large_row_is_passed_as_a_view(monkeypatch):
    seen = _recorded_tables(monkeypatch)
    build, built = families.build, []

    def recording(spec, cap):
        built.append(build(spec, cap))
        return built[-1]

    monkeypatch.setattr(families, "build", recording)
    rows = analysis._rows_at(PhaseCoherent(0.5), "xi", np.array([0.999]), 1, math.pi, 20000)
    (state,), (amps,) = built, seen
    assert state.n_max == 16111 and amps.shape == (1, 16112)
    assert np.shares_memory(amps, state.amplitudes)
    assert _bits(rows[0]) == _bits(analysis._row_at(PhaseCoherent(0.5), "xi", 0.999, 1, math.pi, 20000))


def test_grid_runs_stay_within_the_byte_budget(monkeypatch):
    seen = _recorded_tables(monkeypatch)
    table = figure_dataset(3)  # 151 rows, all at n_max 427
    assert {len(a[0]) for a in seen} == {428}
    assert sum(len(a) for a in seen) == len(table.rows) == 151
    assert max(a.nbytes for a in seen) <= analysis._RUN_BYTES
    assert len(seen) >= 151 * 428 * 16 / analysis._RUN_BYTES > 10


def test_grid_build_failure_names_the_failing_value():
    with pytest.raises(ValueError, match=r"^family build failed at xi = 1\.5: "):
        analysis._rows_at(PhaseCoherent(0.5), "xi", np.array([0.1, 0.5, 1.5, 0.2]), 1, math.pi, 4096)


def test_scan_rows_hold_python_floats():
    table = scan(GaussianNumber(400.0, 0.01, 0.0), "b", -0.5, 2.5, 7, 1, math.pi)
    assert all(type(v) is float for row in table.rows for v in astuple(row))
    json.dumps([astuple(row) for row in table.rows], allow_nan=False)


def test_grid_range_too_wide_for_a_float_is_named():
    with pytest.raises(ValueError, match=r"finite width hi - lo, got lo = -1e\+308, hi = 1e\+308"):
        scan(NumberState(0), "n", -1e308, 1e308, 3, 1, math.pi)

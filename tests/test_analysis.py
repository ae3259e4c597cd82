"""Scans, extremum search and figure datasets."""

import json
import math
import re
import sys
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest
from scipy import optimize

from weyl_uncert import analysis, families, fock, reports
from weyl_uncert.analysis import ExtremumResult, figure_dataset, find_extremum, scan
from weyl_uncert.families import BesselEigenstate, GaussianNumber, Intermediate, NumberState, PhaseCoherent


def u_argmin_t():
    """Calculus oracle for the phase-coherent sum functional: with
    t = |xi|^2 the minimum satisfies (1+t)^3 = 4(1-t)."""
    return optimize.brentq(lambda t: (1 + t) ** 3 - 4 * (1 - t), 0.1, 0.9, xtol=1e-14)


def test_scan_phase_coherent_basics():
    table = scan(PhaseCoherent(0.5), "xi", 0.01, 0.99, 99, 1, math.pi)
    assert len(table.rows) == 99
    params = table.column("param")
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
    ratios = np.diff(np.log(table.column("param")))
    assert np.allclose(ratios, ratios[0])


def test_scan_validation():
    with pytest.raises(ValueError, match="steps"):
        scan(PhaseCoherent(0.5), "xi", 0.1, 0.9, 1, 1, math.pi)
    # str(steps) failed past 4300 digits; the line names it compactly.
    with pytest.raises(ValueError, match=r"^need at least 2 steps, got -1e\+5000$"):
        scan(PhaseCoherent(0.5), "xi", 0.1, 0.9, -10**5000, 1, math.pi)
    # Past the float64s numpy can index, linspace raised its own "Maximum allowed size exceeded"
    # or, within 512 of sys.maxsize, an IndexError.
    for steps, shown in ((10**20, "1e+20"), (10**5000, "1e+5000"), (sys.maxsize, "9.22e+18")):
        with pytest.raises(ValueError, match=rf"^need at most {sys.maxsize // 8} steps, got {re.escape(shown)}$"):
            scan(PhaseCoherent(0.5), "xi", 0.1, 0.9, steps, 1, math.pi)
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
    grid_best = table.column("param")[int(np.argmin(table.column("u")))]
    res = find_extremum(PhaseCoherent(0.5), "xi", "U", "min", 0.3, 0.9, 1, math.pi)
    cell = (0.9 - 0.3) / 63
    assert abs(res.param - grid_best) <= cell


def test_find_extremum_boundary_flag():
    # U decreases toward the left edge of [0.7, 0.9] (minimum is at ~0.604).
    res = find_extremum(PhaseCoherent(0.5), "xi", "U", "min", 0.7, 0.9, 1, math.pi)
    assert res.boundary
    assert res.param == pytest.approx(0.7, abs=0.01)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.2e15), (-1e300, 1e300), (2.0**40, 2.0**40 + 1.0)])
def test_find_extremum_ends_where_floats_stop_splitting_the_bracket(lo, hi):
    # Above |b| ~ 1e9 one ulp exceeds the 1e-6 tolerance; the search used to loop forever there.
    res = find_extremum(GaussianNumber(30.0, 0.05), "b", "U", "min", lo, hi, 1, math.pi)
    assert lo <= res.param <= hi and res.iterations < 2000


def test_find_extremum_validation():
    with pytest.raises(ValueError, match="functional"):
        find_extremum(PhaseCoherent(0.5), "xi", "W", "min", 0.1, 0.9, 1, math.pi)
    with pytest.raises(ValueError, match="kind"):
        find_extremum(PhaseCoherent(0.5), "xi", "U", "extremum", 0.1, 0.9, 1, math.pi)


def test_golden_section_states_carry_the_tail_build_certifies(monkeypatch):
    # Each golden-section state is families.build's, with its tail bound; the first row of a
    # one-value sweep, wrapped in a new FockState, had a tail of 0.0.
    build, report, specs, reported = families.build, fock.report, {}, []

    def building(spec, cap=families.DEFAULT_TRUNCATION_CAP):
        state = build(spec, cap)
        specs[id(state)] = spec
        return state

    def reporting(state, k, phi):
        reported.append(state)
        return report(state, k, phi)

    monkeypatch.setattr(families, "build", building)
    monkeypatch.setattr(fock, "report", reporting)
    res = find_extremum(PhaseCoherent(0.5), "xi", "V", "max", 0.1, 0.9, 1, math.pi)
    monkeypatch.undo()
    assert len(reported) == res.iterations + 3  # two first points, one per step, the midpoint
    for state in reported:
        assert state.tail_bound > 0
        assert state.tail_bound == families.build(specs[id(state)]).tail_bound


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
    b = table.column("param")
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
    lam = table.column("param")
    assert table.swept_parameter == "lambda"
    u = table.column("u")
    assert lam[int(np.argmin(u))] == pytest.approx(0.77, abs=0.05)
    up = table.column("u_prime")
    assert lam[int(np.argmin(up))] == pytest.approx(0.88, abs=0.05)


def test_figure_dataset_unknown_id():
    with pytest.raises(ValueError, match="figure id"):
        figure_dataset(5)
    for bad, shown in ((10**5000, r"1e\+5000"), (-10**5000, r"-1e\+5000")):  # repr fails past 4300 digits
        with pytest.raises(ValueError, match=f"^unknown figure id {shown}; expected one of"):
            figure_dataset(bad)


def test_figure2_dataset():
    table = figure_dataset(2)
    assert table.swept_parameter == "ak2"
    x = table.column("param")
    assert x[0] == pytest.approx(0.05, rel=1e-9)
    assert x[-1] == pytest.approx(20.0, rel=1e-9)
    u = table.column("u")
    # certainty approaches its bound at both ends of the axis, dips between
    assert u[0] > 0.85 and u[-1] > 0.85
    interior = int(np.argmin(u))
    assert 0 < interior < len(u) - 1
    assert u[interior] < 0.45
    assert x[interior] == pytest.approx(math.pi / 2, rel=0.08)


# The abstract's contradictions between the product and the sums, at figure 1 (phase-coherent,
# t = xi^2, U = ((1 - t)/(1 + t))^2 + t and V = xi (1 - t)/(1 + t) at k phi = pi) and figure 2
# (Gaussian, x = a k^2, U = exp(-pi^2/4x) + exp(-x) and V = exp(-pi^2/8x - x/2) to leading order).
def _figure_extrema(figure_id):
    template, name, lo, hi, _, k, _ = analysis._FIGURES[figure_id]
    return [find_extremum(template, name, *fk, lo, hi, k, math.pi / k) for fk in (("U", "min"), ("V", "max"))]


def test_figure2_sum_minimum_and_product_maximum_are_one_closed_form_point():
    # Both are stationary at x = pi/2, where U = 2 exp(-pi/2) and V = exp(-pi/2): the least sum is
    # the largest product's state.  Measured: both found at x = pi/2 + 2.69e-5 (the 1e-6 tolerance
    # in a, times k^2 = 256), values within 5.5e-11 of the closed forms; bounds about twice that.
    u, v = _figure_extrema(2)
    for res, value in ((u, 2.0 * math.exp(-math.pi / 2)), (v, math.exp(-math.pi / 2))):
        assert abs(res.param * analysis._FIG2_K2 - math.pi / 2) <= 5e-5 and not res.boundary
        assert abs(res.value - value) <= 1e-10


def test_figure1_sum_minimum_and_product_maximum_are_apart():
    # V is largest at t = sqrt(5) - 2 and U least at the root of 4(1 - t) = (1 + t)^3.  Measured:
    # both found within 1.26e-7 in xi (bound 2.5e-7), and each value within 1.3e-15 of its closed
    # form at its own param (bound 1e-14).
    u, v = _figure_extrema(1)
    for res, t in ((u, u_argmin_t()), (v, math.sqrt(5.0) - 2.0)):
        assert abs(res.param - math.sqrt(t)) <= 2.5e-7 and not res.boundary
    x2 = u.param**2
    assert abs(u.value - (((1.0 - x2) / (1.0 + x2)) ** 2 + x2)) <= 1e-14
    x2 = v.param**2
    assert abs(v.value - v.param * (1.0 - x2) / (1.0 + x2)) <= 1e-14


def test_sum_and_product_step_apart_except_between_their_extrema():
    # Figure 2: U and V step in opposite directions on all 159 steps.  Figure 1: on all 198 but the
    # 23 that lie between the V maximum and the U minimum, where both fall.
    between = (math.sqrt(math.sqrt(5.0) - 2.0), math.sqrt(u_argmin_t()))
    for figure_id, steps, (lo, hi), count in ((1, 198, between, 23), (2, 159, (math.inf, 0.0), 0)):
        table = figure_dataset(figure_id)
        x = table.column("param")
        together = np.flatnonzero(np.diff(table.column("u")) * np.diff(table.column("v")) >= 0)
        assert len(x) - 1 == steps and len(together) == count
        assert together.tolist() == np.flatnonzero((x[:-1] > lo) & (x[1:] < hi)).tolist()


def _bits(row):
    return [float(v).hex() for v in astuple(row)]


def _assert_rows_equal_single_rows(monkeypatch, template, name, values, k, phi, cap=4096):
    # Each grid row, and each row of amplitudes as char_table reads it, is bitwise its one-state
    # build's: the runs the grid read are returned.
    seen = _recorded_tables(monkeypatch)
    rows = analysis._rows_at(template, name, values, k, phi, cap)
    monkeypatch.undo()
    assert len(rows) == len(values) == sum(len(a) for a in seen)
    amps = (np.asarray(a, dtype=complex) for run in seen for a in run)
    for x, row, got in zip(values, rows, amps):
        assert _bits(row) == _bits(analysis._row_at(template, name, x, k, phi, cap)), x
        assert got.tobytes() == families.build(families.with_param(template, name, x), cap).amplitudes.tobytes(), x
    return seen


def _recorded_tables(monkeypatch):
    # The runs of one n_max, one per entry, in the order fock.char_table reads them.
    seen = []
    char_table = fock.char_table

    def recording(stacks, k, phi):
        def record(amps):
            seen.append(amps)
            return amps

        return char_table(map(record, stacks), k, phi)

    monkeypatch.setattr(fock, "char_table", recording)
    return seen


def _recorded_chunks(monkeypatch, *classes):
    # The chunks, one array per entry, in the order the families' _rows built them.
    built = []

    def recording(rows_of):
        def record(specs, n_max):
            built.append(rows_of(specs, n_max))
            return built[-1]

        return staticmethod(record)

    for cls in classes:
        monkeypatch.setattr(cls, "_rows", recording(cls._rows))
    return built


def _within_budget(built):
    # Each chunk's zero-padded complex rows fit in the budget, or it is one row above it.
    return all(len(a) == 1 or a.size * 16 <= families._RUN_BYTES for a in built)


@pytest.mark.parametrize("figure_id", [1, 2, 3, 4])
def test_grid_rows_equal_single_rows_on_every_figure(figure_id, monkeypatch):
    template, name, lo, hi, steps, k, log_spaced = analysis._FIGURES[figure_id]
    grid = analysis._grid(lo, hi, steps, log_spaced)
    built = _recorded_chunks(monkeypatch, type(template))
    seen = _assert_rows_equal_single_rows(monkeypatch, template, name, grid, k, math.pi / k)
    assert _within_budget(built) and len(built) <= len(seen)


def test_a_grid_is_one_table_checked_once(monkeypatch):
    seen, calls = _recorded_tables(monkeypatch), Counter()
    built = _recorded_chunks(monkeypatch, GaussianNumber)
    functionals, post_init = reports.functionals, reports.CharSet.__post_init__

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(reports, "functionals", counting("functionals", functionals))
    monkeypatch.setattr(reports.CharSet, "__post_init__", counting("check", post_init))
    table = figure_dataset(2)
    # 160 rows built as 22 chunks, read as 39 runs of one length: 19 lengths, cut 20 more times by a chunk's end.
    assert (len(table.rows), len(built), len(seen)) == (160, 22, 39)
    assert calls == {"functionals": 1, "check": 1}


def test_grid_nbar_is_bitwise_the_one_state_dot():
    # One grid whose runs include the lone n_max 16111 row, whose dot is long enough to thread.
    values = np.array([0.5, 0.999, 0.9, 0.9])
    rows = analysis._rows_at(PhaseCoherent(0.5), "xi", values, 1, math.pi, 20000)
    states = [families.build(PhaseCoherent(x), 20000) for x in values]
    assert states[1].n_max == 16111
    for row, st in zip(rows, states):
        c = st.amplitudes
        assert row.nbar.hex() == fock.mean_photon(st).hex() == float(np.arange(c.size) @ np.abs(c) ** 2).hex()


def test_grid_rows_equal_single_rows_on_the_extremum_coarse_grid(monkeypatch):
    grid = analysis._grid(0.4, 1.4, analysis._COARSE_POINTS)
    seen = _assert_rows_equal_single_rows(monkeypatch, BesselEigenstate(1.0), "lambda", grid, 1, math.pi)
    assert [len(a) for a in seen] == [64]


def test_grid_rows_equal_single_rows_where_n_max_rises_and_falls(monkeypatch):
    # Lengths 32, 48, 160 and 320: each change of cut is a change of 16-level bucket.
    values = np.array([0.1, 0.7, 0.9, 0.9, 0.7, 0.1, 0.1, 0.95, 0.3])
    nmax = [families.build(PhaseCoherent(x)).n_max for x in values]
    assert nmax[2] > nmax[1] > nmax[0] and nmax[7] > nmax[6] and nmax[1] // 16 > nmax[0] // 16
    built = _recorded_chunks(monkeypatch, PhaseCoherent)
    seen = _assert_rows_equal_single_rows(monkeypatch, PhaseCoherent(0.5), "xi", values, 2, math.pi / 2)
    assert [len(a) for a in seen] == [1, 1, 2, 1, 2, 1, 1]
    assert [a.shape for a in built] == [(9, max(nmax) + 1)]  # seven runs, one chunk


@pytest.mark.parametrize("template, name, lo, hi, steps", [
    (NumberState(2), "n", 0, 40, 41),
    (Intermediate(0.5, 3, 0.6), "alpha2", 0.0, 1.0, 30),
    (Intermediate(0.5, 3, 0.6), "n", 1, 30, 30),
    (Intermediate(0.5, 3, -0.6), "xi", -0.7, 0.7, 60),
    (Intermediate(0.5, 3, 0.3 + 0.5j), "alpha2", 0.1, 0.9, 9),
    (GaussianNumber(400.0, 0.01, 0.3), "nbar", 400.0, 401.0, 21),
    (GaussianNumber(400.0, 0.01, 0.0), "a", 0.005, 0.05, 40),
    (GaussianNumber(400.0, 0.01), "b", -2.0, 2.0, 41),
    (PhaseCoherent(0.5), "xi", -0.7, 0.7, 80),
])
def test_grid_runs_of_many_rows_equal_single_rows_in_every_family(template, name, lo, hi, steps, monkeypatch):
    grid = analysis._grid(lo, hi, steps)
    seen = _assert_rows_equal_single_rows(monkeypatch, template, name, grid, 2, math.pi / 2)
    assert max(len(a) for a in seen) > 1


@pytest.mark.parametrize("template, name, values", [
    (NumberState(2), "n", [0, 20, 3, 3, 40, 9, 1]),
    (PhaseCoherent(0.5), "xi", [0.1, 0.5, 0.9, 0.9, 0.5, -0.95, 0.3]),
    (GaussianNumber(100.0, 0.1, 0.3), "nbar", [100.0, 40.0, 300.0, 300.0, 20.0, 150.0]),
    (BesselEigenstate(1.0), "lambda", [0.5, 5.0, 1.0, 20.0, 20.0, 2.0]),
    (Intermediate(0.5, 3, 0.3), "n", [1, 40, 3, 35, 35, 2]),
    (NumberState(2), "n", [30, 31, 32, 33, 31, 47, 48]),  # cuts 31 and 32 straddle a bucket boundary
    (Intermediate(0.5, 3, 0.3), "n", [29, 30, 31, 30, 47]),
])
def test_a_chunk_whose_n_max_rises_and_falls_equals_single_rows_in_every_family(template, name, values,
                                                                                monkeypatch):
    # Built at the chunk's largest length, each row's prefix of its own length, zero above its own cut,
    # is bitwise its own build.
    grid = np.array(values, dtype=float)
    built = _recorded_chunks(monkeypatch, type(template))
    seen = _assert_rows_equal_single_rows(monkeypatch, template, name, grid, 2, math.pi / 2)
    n_maxes = [a.shape[1] - 1 for a in seen]
    assert len(built) == 1 and {1, -1} <= set(np.sign(np.diff(n_maxes)).tolist()), n_maxes


def test_a_lone_large_row_is_passed_as_a_view(monkeypatch):
    seen, built = _recorded_tables(monkeypatch), _recorded_chunks(monkeypatch, PhaseCoherent)
    rows = analysis._rows_at(PhaseCoherent(0.5), "xi", np.array([0.999]), 1, math.pi, 20000)
    (chunk,), (amps,) = built, seen
    assert amps.shape == chunk.shape == (1, 16112) and np.shares_memory(amps, chunk)
    assert _bits(rows[0]) == _bits(analysis._row_at(PhaseCoherent(0.5), "xi", 0.999, 1, math.pi, 20000))


def test_grid_runs_stay_within_the_byte_budget(monkeypatch):
    seen, built = _recorded_tables(monkeypatch), _recorded_chunks(monkeypatch, GaussianNumber)
    table = figure_dataset(3)  # 151 rows, all cut at 427, so 432 long: each chunk is one run
    assert [a.shape for a in seen] == [a.shape for a in built] and {a.shape[1] for a in built} == {432}
    assert sum(len(a) for a in built) == len(table.rows) == 151
    assert max(a.size * 16 for a in built) <= families._RUN_BYTES
    assert len(built) >= 151 * 432 * 16 / families._RUN_BYTES > 10


def test_grid_rows_do_not_depend_on_the_byte_budget(monkeypatch):
    # Figures 1-4 and the xi = 0.49 scan in chunks of a few rows (4 KiB), at the default, and in
    # chunks past glibc's 128 KiB mmap threshold (1 MiB): the same rows, bit for bit.
    built, rows, chunks = _recorded_chunks(monkeypatch, PhaseCoherent, GaussianNumber, BesselEigenstate), [], []
    for budget in (4 * 1024, 64 * 1024, 1024 * 1024):
        monkeypatch.setattr(families, "_RUN_BYTES", budget)
        built.clear()
        scans = (*map(figure_dataset, analysis.FIGURE_IDS),
                 scan(PhaseCoherent(0.49), "xi", 0.01, 0.995, 99, 1, math.pi))
        rows.append([[_bits(r) for r in t.rows] for t in scans])
        chunks.append(len(built))
        assert _within_budget(built)
    assert max(a.size * 16 for a in built) > 128 * 1024
    assert chunks[0] > chunks[1] > chunks[2] and rows[0] == rows[1] == rows[2]


def test_a_sweep_of_no_values_reads_no_runs():
    assert list(families.sweep(PhaseCoherent(0.5), "xi", [], 4096)) == []
    with pytest.raises(ValueError, match="no sweepable parameter 'a'"):
        list(families.sweep(PhaseCoherent(0.5), "a", [], 4096))


def test_grid_build_failure_names_the_failing_value():
    with pytest.raises(ValueError, match=r"^family build failed at xi = 1\.5: "):
        analysis._rows_at(PhaseCoherent(0.5), "xi", np.array([0.1, 0.5, 1.5, 0.2]), 1, math.pi, 4096)


def test_a_grid_value_past_the_truncation_cap_is_named():
    with pytest.raises(ValueError, match=r"^family build failed at xi = 0\.9999: truncation cap exceeded: "
                                         r"family needs n_max = 161173 but the cap is 4096"):
        analysis._rows_at(PhaseCoherent(0.5), "xi", np.array([0.5, 0.9999]), 1, math.pi, 4096)


def test_a_grid_builds_its_states_as_it_reads_them(monkeypatch):
    # Chunks stream, with no list of all rows: 0.999 (n_max 16111, past the budget beside them)
    # cuts the chunk of 0.1 and 0.5, whose one run (cuts 16 and 24, both 32 long) is read by
    # char_table before 1.5 fails; 0.999 and 0.2 are never built.
    seen, built = _recorded_tables(monkeypatch), _recorded_chunks(monkeypatch, PhaseCoherent)
    with pytest.raises(ValueError, match=r"xi = 1\.5"):
        analysis._rows_at(PhaseCoherent(0.5), "xi", np.array([0.1, 0.5, 0.999, 1.5, 0.2]), 1, math.pi, 20000)
    assert [len(a) for a in built] == [2] and [len(a) for a in seen] == [2]


@pytest.mark.parametrize("bad, message", [
    (math.nan, "amplitudes must be finite"),
    (0.0, "amplitudes must be finite"),  # a zero norm: 0 / 0
    (1e-160, "state is not normalized"),  # squares below the smallest normal float
])
def test_a_grid_row_that_fails_the_unit_check_is_named(bad, message, monkeypatch):
    rows_of = GaussianNumber._rows

    def spoiled(specs, n_max):
        rows = rows_of(specs, n_max)
        rows[[s.b == 0.5 for s in specs]] = bad
        return rows

    monkeypatch.setattr(GaussianNumber, "_rows", staticmethod(spoiled))
    grid = np.array([0.0, 0.25, 0.5, 0.75])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=rf"^family build failed at b = 0\.5: {message}"):
        analysis._rows_at(GaussianNumber(400.0, 0.01), "b", grid, 1, math.pi, 4096)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=rf"^{message}"):
        families.build(GaussianNumber(400.0, 0.01, 0.5))


def test_scan_rows_hold_python_floats():
    table = scan(GaussianNumber(400.0, 0.01, 0.0), "b", -0.5, 2.5, 7, 1, math.pi)
    assert all(type(v) is float for row in table.rows for v in astuple(row))
    json.dumps([astuple(row) for row in table.rows], allow_nan=False)


def test_grid_range_too_wide_for_a_float_is_named():
    with pytest.raises(ValueError, match=r"finite width hi - lo, got lo = -1e\+308, hi = 1e\+308"):
        scan(NumberState(0), "n", -1e308, 1e308, 3, 1, math.pi)

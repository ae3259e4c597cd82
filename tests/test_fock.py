"""Single-mode machinery: characteristic sets against dense oracles and
test-local slice sums (the Weyl relation), Gram determinants, reports, the
phase distribution and verify's fock suite."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from test_numerics import full_matrix
from weyl_uncert import analysis, families, fock, reports, verify
from weyl_uncert.numerics import det3
from weyl_uncert.reports import CharSet, gram_pair
from weyl_uncert.fock import (
    FockState,
    char_set,
    mean_photon,
    phase_distribution,
    random_state,
    report,
)


def number_state(n, n_max=None):
    size = (n_max if n_max is not None else max(n, 8)) + 1
    c = np.zeros(size, dtype=complex)
    c[n] = 1.0
    return FockState(c)


# ---------------------------------------------------------------------------
# the Weyl relation on the production characteristic set


def test_single_mode_weyl_relation():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n_max = int(rng.integers(8, 129))
        st = random_state(n_max, rng)
        k = int(rng.integers(1, 9))
        phi = float(rng.uniform(-math.pi, math.pi))
        c, n = st.amplitudes, np.arange(n_max + 1)
        cs = char_set(st, k, phi)
        # cross_char = <exp(-i phi n) Edag^k> = weyl * <Edag^k exp(-i phi n)>, by slices.
        moved = np.vdot(c[k:], np.exp(-1j * phi * n[:-k]) * c[:-k])
        assert abs(cs.cross_char - cs.weyl * moved) <= 1e-12
        assert abs(cs.phase_char - np.vdot(c[k:], c[:-k])) <= 1e-12


def test_shift_domain_errors():
    with pytest.raises(ValueError, match="k must be"):
        char_set(number_state(2, n_max=4), 0, math.pi)


@pytest.mark.parametrize("k", [1.5, 0.5, math.nan, math.inf])
def test_non_integer_k_is_rejected_not_truncated(k):
    # k = 1.5 was read as k = 1, while report tested the stringent point at 1.5 * phi = pi.
    spec, phi = families.PhaseCoherent(0.5), 2 * math.pi / 3
    st = families.build(spec)
    calls = (lambda: char_set(st, k, phi), lambda: fock.char_table([st.amplitudes[None]], k, phi),
             lambda: report(st, k, phi), lambda: families.closed_form_char(spec, k, phi),
             lambda: analysis.scan(spec, "xi", 0.1, 0.9, 3, k, phi))
    for call in calls:
        with pytest.raises(ValueError, match=re.escape("k must be an integer >= 1, got ")):
            call()
    assert report(st, 2.0, phi) == report(st, 2, phi)  # an integral float still names a count
    assert fock.weyl_phase(2**1023, 0.0) == (2**1023, 1.0)  # counts up to the float range pass


@pytest.mark.parametrize("k, phi, message", [
    (1, math.inf, "k*phi must be finite, got k = 1, phi = inf"),
    (1, -math.inf, "k*phi must be finite, got k = 1, phi = -inf"),
    (1, math.nan, "k*phi must be finite, got k = 1, phi = nan"),
    (10**6, 1e303, "k*phi must be finite, got k = 1000000, phi = 1e+303"),
    (10**400, 1.0, "k must be at most 1.8e308, got 1e+400"),
    (10**5000, 1.0, "k must be at most 1.8e308, got 1e+5000"),
    (-10**5000, 1.0, "k must be an integer >= 1, got -1e+5000"),
], ids=["inf", "-inf", "nan", "k*phi-overflows", "k-above-the-float-range", "k-past-4300-digits",
        "negative-k-past-4300-digits"])
def test_non_finite_phi_is_one_value_error_and_keeps_the_table(k, phi, message):
    # An infinite phi warned twice (inf * 0, then exp) before the record's NaN check raised; a
    # table of no rows read no phase table and warned in the Weyl phase's exp.  At k = 10^6,
    # phi = 1e303 passes the table's phi * n check, and only k * phi overflows.  A k above the
    # float range raised OverflowError converting k for k * phi; one past 4300 digits raised str's
    # own digit-limit error while its message was formed.
    st = random_state(6, np.random.default_rng(41))
    char_set(st, 1, 0.5)
    kept, message = fock._kept[0], f"^{re.escape(message)}$"
    for call in (lambda: char_set(st, k, phi), lambda: fock.char_table([st.amplitudes[None]], k, phi),
                 lambda: fock.char_table([], k, phi), lambda: report(st, k, phi),
                 lambda: families.closed_form_char(families.PhaseCoherent(0.5), k, phi)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=message):
                call()
        assert caught == []
        assert fock._kept[0] is kept


@pytest.mark.parametrize("n_max", [58, 300])
def test_a_phi_whose_table_overflows_is_one_value_error_and_keeps_the_table(n_max):
    # phi = 1e306 pi is finite, but phi * n leaves the float range at n = 58: the table warned
    # twice (overflow, then exp) before the record's NaN check raised.  The bound is twice the
    # length asked for, the most a kept table grows to, so a table kept for phi changes nothing.
    phi = 1e306 * math.pi
    char_set(random_state(10, np.random.default_rng(42)), 1, phi)  # 2 * 11 * phi is finite
    st, kept = random_state(n_max, np.random.default_rng(43)), fock._kept[0]
    assert kept[0] == phi
    for call in (lambda: char_set(st, 1, phi), lambda: fock.char_table([st.amplitudes[None]], 1, phi)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=re.escape(f"phi = {phi!r} is too large: phi * n must be")):
                call()
        assert caught == []
        assert fock._kept[0] is kept


def test_state_validation():
    with pytest.raises(ValueError, match="normalized"):
        FockState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        FockState(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="1-D"):
        FockState(np.eye(2))
    for bad in (-1e-300, math.nan, math.inf):
        with pytest.raises(ValueError, match="tail_bound"):
            FockState([1.0, 0.0], bad)
    given = np.array([0.6, 0.8j])
    st = FockState(given)
    given[0] = 0.0
    assert st.amplitudes[0] == 0.6 and not st.amplitudes.flags.writeable


# ---------------------------------------------------------------------------
# characteristic sets


def test_char_set_number_state():
    for n in (0, 3, 7):
        st = number_state(n, n_max=10)
        for k in (1, 2, 5):
            for phi in (math.pi, math.pi / 3, -1.2):
                cs = char_set(st, k, phi)
                assert cs.number_char == pytest.approx(np.exp(1j * phi * n), abs=1e-15)
                assert cs.phase_char == 0.0
                assert cs.cross_char == 0.0
                assert cs.pi_k == (1.0 if n < k else 0.0)


def test_char_set_record_validation():
    ok = {"number_char": 0.5, "phase_char": 0.5j, "cross_char": -0.5, "weyl": 1.0}
    for pi_k in (0.0, 1.0, -1e-13, 1.0 + 1e-13):
        assert CharSet(**ok, pi_k=pi_k).pi_k == pi_k
    for name in ("number_char", "phase_char", "cross_char"):
        assert abs(getattr(CharSet(**{**ok, name: 1.0 + 1e-13}), name)) > 1.0
        with pytest.raises(ValueError, match=rf"\|{name}\| exceeds 1"):
            CharSet(**{**ok, name: 1j * (1.0 + 1e-11)})
    for pi_k in (-1e-11, 1.0 + 1e-11, math.nan):
        with pytest.raises(ValueError, match="pi_k out of"):
            CharSet(**ok, pi_k=pi_k)
    for name in ("number_char", "phase_char", "cross_char", "weyl"):
        for bad in (complex(math.nan, 0.0), complex(0.0, math.nan), np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=rf"\|{name}\| exceeds 1 or is NaN"):
                CharSet(**{**ok, name: bad})
    st = random_state(6, np.random.default_rng(40))
    with pytest.raises(ValueError, match="k\\*phi must be finite"):
        char_set(st, 1, math.nan)
    for k, phi in ((1, math.pi), (3, 0.7), (2, -2.5)):
        assert char_set(st, k, phi).weyl == np.exp(-1j * k * phi)


def test_char_set_vacuum():
    cs = char_set(number_state(0, n_max=3), 1, math.pi)
    assert (cs.number_char, cs.phase_char, cs.cross_char, cs.pi_k) == (1.0, 0.0, 0.0, 1.0)


def test_char_set_pi_k_never_exceeds_one():
    # The whole support lies below k = 20, and its sum rounds to 1 + 2^-52.
    st = families.build(families.PhaseCoherent(0.2))
    assert float(np.sum(np.abs(st.amplitudes) ** 2)) > 1.0
    assert char_set(st, 20, math.pi / 20).pi_k == 1.0


def test_char_set_phase_coherent_closed_forms():
    xi = 0.7 * np.exp(0.3j)
    t = abs(xi) ** 2
    st = families.build(families.PhaseCoherent(xi))
    for k in (1, 2):
        for phi in (math.pi, math.pi / 2):
            cs = char_set(st, k, phi)
            number = (1 - t) / (1 - t * np.exp(1j * phi))
            phase = np.conj(xi) ** k
            assert abs(cs.number_char - number) < 1e-12
            assert abs(cs.phase_char - phase) < 1e-12
            assert abs(cs.cross_char - np.exp(-1j * k * phi) * phase * np.conj(number)) < 1e-12
            assert cs.pi_k == pytest.approx(1 - t**k, abs=1e-12)


def test_char_set_against_dense_oracle():
    rng = np.random.default_rng(34)
    for n_max in (8, 32):
        st = random_state(n_max, rng)
        c = st.amplitudes
        e = verify._dense_fock_lower(n_max + 1)
        for k in (1, 2, 4):
            phi = float(rng.uniform(-math.pi, math.pi))
            cs = char_set(st, k, phi)
            rot = np.diag(np.exp(1j * phi * np.arange(n_max + 1)))
            edk = np.linalg.matrix_power(e.conj().T, k)
            assert abs(cs.number_char - np.vdot(c, rot @ c)) < 1e-12
            assert abs(cs.phase_char - np.vdot(c, edk @ c)) < 1e-12
            assert abs(cs.cross_char - np.vdot(c, rot.conj().T @ edk @ c)) < 1e-12
            assert abs(cs.pi_k - np.linalg.norm(c[:k]) ** 2) < 1e-12


def test_char_set_beyond_n_max_against_padded_dense_oracle():
    # For k > n_max, E^k psi = 0: the set must be what the dense operators
    # give on the same state padded with zero amplitudes.
    rng = np.random.default_rng(35)
    st = random_state(4, rng)
    c = np.pad(st.amplitudes, (0, 8))
    e = verify._dense_fock_lower(c.size)
    rot = np.diag(np.exp(1j * 0.9 * np.arange(c.size)))
    for k in range(1, c.size + 2):
        cs = char_set(st, k, 0.9)
        edk = np.linalg.matrix_power(e.conj().T, k)
        assert abs(cs.number_char - np.vdot(c, rot @ c)) < 1e-12
        assert abs(cs.phase_char - np.vdot(c, edk @ c)) < 1e-12
        assert abs(cs.cross_char - np.vdot(c, rot.conj().T @ edk @ c)) < 1e-12
        assert abs(cs.pi_k - np.linalg.norm(c[:k]) ** 2) < 1e-12
        if k > st.n_max:
            assert (cs.phase_char, cs.cross_char, cs.pi_k) == (0.0, 0.0, 1.0)


def two_exponential_char_set(state, k, phi):
    # The per-sum formula: one complex exponential for the number sum and
    # another for the cross sum.
    c = state.amplitudes
    n = np.arange(c.size)
    probs = np.abs(c) ** 2
    pair = np.conj(c[k:]) * c[:-k]
    return (
        complex(probs @ np.exp(1j * phi * n)),
        complex(np.sum(pair)),
        complex(pair @ np.exp(-1j * phi * n[k:])),
        np.exp(-1j * k * phi),
        float(np.sum(probs[:k])),
    )


@pytest.mark.parametrize("n_max", [1, 2, 8, 153, 427, 4096])
def test_char_set_equals_two_exponential_formula_exactly(n_max):
    # The shared phase table conjugated is bitwise exp(-i phi n), so every
    # field matches the per-sum formula exactly, not just to rounding.
    rng = np.random.default_rng(n_max)
    for _ in range(3):
        st = random_state(n_max, rng)
        for k in sorted({1, 2, 5, n_max} & set(range(1, n_max + 1))):
            for phi in (0.0, math.pi, math.pi / k, -2.3, 7.5, 1e3):
                cs = char_set(st, k, phi)
                got = (cs.number_char, cs.phase_char, cs.cross_char, cs.weyl, cs.pi_k)
                assert got == two_exponential_char_set(st, k, phi), (n_max, k, phi)


def _bits(*values):
    return np.array(values, dtype=complex).view(np.uint64).tolist()


def test_phase_table_reuse_is_invisible():
    # Interleaved sizes and phases make the kept table hit and miss in turn;
    # every output must equal the formula evaluated afresh, bit for bit.
    rng = np.random.default_rng(16112)
    states = {n_max: random_state(n_max, rng) for n_max in (16, 16111)}
    for n_max in (16, 16111, 16):
        st = states[n_max]
        c = st.amplitudes
        n = np.arange(c.size)
        for phi in (math.pi, -math.pi, 0.0, -0.0, math.pi / 16, 1.0):
            phases = np.exp(1j * phi * n)
            for k in (1, 2, n_max + 2):
                cs = char_set(st, k, phi)
                probs = np.abs(c) ** 2
                pair = np.conj(c[k:]) * c[:-k]
                want = (probs @ phases, pair.sum(), pair @ phases[k:].conj(), np.exp(-1j * k * phi))
                got = (cs.number_char, cs.phase_char, cs.cross_char, cs.weyl)
                assert _bits(*got) == _bits(*want), (n_max, phi, k)
                assert _bits(cs.pi_k) == _bits(min(1.0, float(probs[:k].sum())))
    grid = -math.pi + (2.0 * math.pi / 64) * np.arange(64)
    st = states[16111]
    a = st.amplitudes * np.exp(-1j * grid[0] * np.arange(st.amplitudes.size))
    direct = np.abs(np.fft.fft(np.pad(a, (0, -a.size % 64)).reshape(-1, 64).sum(axis=0))) ** 2
    assert phase_distribution(st, grid).tolist() == (direct / (2.0 * math.pi)).tolist()
    with pytest.raises(ValueError, match="read-only"):
        fock._phase_table(1.0, 17)[0] = 0.0
    # One phi: sizes that grow across powers of two, then shrink, interleaved
    # with -phi.  Every prefix is the fresh formula, and a size that fits the
    # kept table is a view of it, not a rebuild.
    for phi in (math.pi / 16, math.pi, 1.0):
        for size in (1, 2, 3, 1023, 1024, 1025, 16112, 17):
            for p in (phi, -phi, phi):
                got = fock._phase_table(p, size)
                assert _bits(*got) == _bits(*np.exp(1j * p * np.arange(size))), (p, size)
            assert np.shares_memory(fock._phase_table(phi, size // 2 + 1), got)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0.0
    # A climbing size at one phi grows the table at least twofold: 166 sizes, few builds.
    tables = []
    for size in range(17, 16113, 97):
        got = fock._phase_table(0.25, size)
        assert np.array_equal(got.view(np.uint64), np.exp(1j * 0.25 * np.arange(size)).view(np.uint64))
        tables.append(got.base)
    assert len({id(t) for t in tables}) <= 12


def _large_density_state():
    # The phase-coherent state at xi = 0.999 (n_max 16111), the benchmark's phase density.
    return families.build(families.parse_spec("phase-coherent:xi=0.999"), 20000)


def test_phase_distribution_is_the_pad_and_fold_transform_bitwise():
    # The transform runs at length M and folds only when n_max + 1 > M: each density is
    # bitwise |FFT|^2 / 2 pi of the amplitudes zero-padded to a multiple of M and folded.
    st = _large_density_state()
    assert st.n_max == 16111
    for m in (32768, 16112, 5000):  # M above, at and below n_max + 1
        for phi0 in (-math.pi, 0.3):
            grid = phi0 + (2.0 * math.pi / m) * np.arange(m)
            a = st.amplitudes * np.exp(-1j * grid[0] * np.arange(st.amplitudes.size))
            amp = np.fft.fft(np.pad(a, (0, -a.size % m)).reshape(-1, m).sum(axis=0))
            want = np.abs(amp) ** 2 / (2.0 * math.pi)
            got = phase_distribution(st, grid)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), (m, phi0)


def test_number_char_hermitian_in_phi():
    rng = np.random.default_rng(35)
    st = random_state(40, rng)
    for phi in (0.3, 1.7, math.pi):
        a = char_set(st, 1, phi).number_char
        b = char_set(st, 1, -phi).number_char
        assert abs(a - np.conj(b)) < 1e-14


def test_number_char_modulus_one_iff_concentrated():
    # At a generic angle, modulus ~1 forces the number distribution onto a
    # single n (tested on number states and spread states at phi = 1).
    rng = np.random.default_rng(36)
    phi = 1.0
    for n in (0, 2, 9):
        st = number_state(n, n_max=12)
        cs = char_set(st, 1, phi)
        assert abs(cs.number_char) >= 1.0 - 1e-12
    for _ in range(50):
        st = random_state(24, rng)
        if abs(char_set(st, 1, phi).number_char) >= 1.0 - 1e-9:
            assert float(np.max(np.abs(st.amplitudes) ** 2)) >= 1.0 - 1e-6
    two_point = FockState(np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert abs(char_set(two_point, 1, phi).number_char) < 0.9



# ---------------------------------------------------------------------------
# stacked tables


CHAR_FIELDS = ("number_char", "phase_char", "cross_char", "weyl", "pi_k")


def test_char_table_rows_equal_char_set():
    rng = np.random.default_rng(161)
    for n_max in (1, 8, 32, 128):
        states = [random_state(n_max, rng) for _ in range(7)]
        amps = np.array([st.amplitudes for st in states])
        for k in (1, 2, 4, n_max, n_max + 3):
            for phi in (math.pi / k, -2.3, 0.0):
                table, nbar = fock.char_table([amps], k, phi)
                assert nbar.shape == table.number_char.shape == table.pi_k.shape == (7,)
                for i, st in enumerate(states):
                    cs = char_set(st, k, phi)
                    for name in CHAR_FIELDS:
                        got = np.broadcast_to(getattr(table, name), (7,))[i]
                        assert abs(got - getattr(cs, name)) <= 1e-15, (n_max, k, phi, name)


def test_char_table_of_one_row_is_bitwise_char_set():
    rng = np.random.default_rng(162)
    for n_max in (0, 3, 40):
        st = random_state(n_max, rng)
        for k in (1, 2, 5):
            for phi in (math.pi, -math.pi, math.pi / k, 0.7):
                table, _ = fock.char_table([st.amplitudes[None]], k, phi)
                cs = char_set(st, k, phi)
                assert _bits(*(np.ravel(getattr(table, f))[0] for f in CHAR_FIELDS)) == _bits(
                    *(getattr(cs, f) for f in CHAR_FIELDS)
                ), (n_max, k, phi)


def test_char_table_of_stacks_of_several_n_max_is_bitwise_each_row():
    # One table, checked once, over stacks read from a generator; each row's set and
    # mean photon number are bitwise the one-state values.
    rng = np.random.default_rng(165)
    states = [[random_state(n_max, rng) for _ in range(rows)] for n_max, rows in ((5, 3), (40, 1), (2, 4))]
    flat = [st for stack in states for st in stack]
    for k, phi in ((1, math.pi), (3, -0.4)):
        table, nbar = fock.char_table((np.array([st.amplitudes for st in s]) for s in states), k, phi)
        assert table.number_char.shape == table.pi_k.shape == nbar.shape == (8,)
        for i, st in enumerate(flat):
            got = (np.broadcast_to(getattr(table, f), (8,))[i] for f in CHAR_FIELDS)
            assert _bits(*got) == _bits(*(getattr(char_set(st, k, phi), f) for f in CHAR_FIELDS)), (k, i)
        assert nbar.tolist() == [mean_photon(st) for st in flat]
    assert type(mean_photon(flat[0])) is float


def test_char_table_of_real_rows_is_the_table_of_the_rows_cast_to_complex():
    # Real rows are summed as given, without a complex copy: every field and nbar is
    # bitwise the table of the same rows cast to complex, signed zeros included.
    rng = np.random.default_rng(166)
    for n_max, rows in ((16, 1), (427, 1), (427, 3), (16111, 1)):
        real = rng.standard_normal((rows, n_max + 1))
        real[:, ::7], real[:, 1::7] = 0.0, -0.0
        real /= np.linalg.norm(real, axis=1, keepdims=True)
        for k in (1, 2, n_max + 2):
            for phi in (math.pi / k, -0.4):
                (got, got_nbar), (want, want_nbar) = (
                    fock.char_table([x], k, phi) for x in (real, real.astype(complex)))
                for name in CHAR_FIELDS:
                    x, y = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (n_max, rows, k, phi, name)
                assert got_nbar.tobytes() == want_nbar.tobytes(), (n_max, rows, k, phi)


def _traced_peak(call):
    # Peak bytes traced while call runs, above what was allocated before it; a first
    # untraced call builds the kept phase table, so only the call's own arrays count.
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_large_single_mode_calls_make_no_avoidable_copies():
    # At n_max 16111 a complex row is 258 KB.  The sums of a real row form the pair
    # products and |c|^2 without a complex copy of the row, and the density makes its
    # length-M transform and squares it in place: each peak stays under 2.6 such arrays.
    row = next(families.sweep(families.PhaseCoherent(0.999), "xi", [0.999], 20000))[0]
    assert row.dtype == np.float64 and row.size == 16112
    assert _traced_peak(lambda: fock.char_table([row[None]], 1, math.pi)) <= 2.6 * 16112 * 16
    st, grid = _large_density_state(), np.linspace(-math.pi, math.pi, 32768, endpoint=False)
    assert _traced_peak(lambda: phase_distribution(st, grid)) <= 2.6 * 32768 * 16


def test_char_table_of_no_rows_is_empty():
    # No runs, or runs of no rows (a sweep of no values yields none), give an empty table.
    for stacks in ([], [np.zeros((0, 5))], [np.zeros((0, 5), complex), np.zeros((0, 9))]):
        for k in (1, 7):
            table, nbar = fock.char_table(stacks, k, 0.5)
            assert all(getattr(table, name).dtype == complex for name in CHAR_FIELDS[:3])
            assert all(getattr(table, name).shape == (0,) for name in (*CHAR_FIELDS[:3], "pi_k"))
            assert nbar.shape == (0,) and table.weyl == complex(np.exp(-0.5j * k))


def test_char_table_edges():
    rng = np.random.default_rng(163)
    # k above n_max: E^k psi = 0, so the phase and cross sums are exactly 0 and
    # pi_k, whose sum may round above 1, is clamped to exactly 1.
    amps = np.array([random_state(4, rng).amplitudes for _ in range(50)])
    table, _ = fock.char_table([amps], 5, 1.0)
    assert np.all(table.phase_char == 0.0) and np.all(table.cross_char == 0.0)
    assert np.all(table.pi_k <= 1.0) and np.all(table.pi_k >= 1.0 - 1e-15)
    over = families.build(families.PhaseCoherent(0.2)).amplitudes  # |c|^2 sums to 1 + 2^-52
    assert float(np.sum(np.abs(over) ** 2)) > 1.0
    assert np.all(fock.char_table([[over, over]], 20, math.pi / 20)[0].pi_k == 1.0)
    # n_max = 0: every state is the vacuum up to a phase.
    vac = np.array([[1.0], [1j], [-1.0]])
    table, nbar = fock.char_table([vac], 1, 2.0)
    assert np.all(table.number_char == 1.0) and np.all(table.pi_k == 1.0) and np.all(nbar == 0.0)
    assert np.all(table.phase_char == 0.0) and np.all(table.cross_char == 0.0)
    # phi = +-pi: exp(+-i pi n) = (-1)^n, so the number character is the
    # parity <(-1)^n> and the two signs give the same table up to rounding.
    amps = np.array([random_state(9, rng).amplitudes for _ in range(5)])
    parity = (np.abs(amps) ** 2) @ (-1.0) ** np.arange(10)
    for phi in (math.pi, -math.pi):
        table, _ = fock.char_table([amps], 2, phi)
        assert np.max(np.abs(table.number_char - parity)) <= 1e-15
        assert table.weyl == complex(np.exp(-2j * phi))
    (plus, _), (minus, _) = fock.char_table([amps], 1, math.pi), fock.char_table([amps], 1, -math.pi)
    for name in CHAR_FIELDS:
        assert np.max(np.abs(getattr(plus, name) - getattr(minus, name))) <= 1e-15, name


def test_char_table_functionals_and_dets_are_the_reports_values():
    # reports.functionals and det3 round a table as they round its scalar
    # sets, so a stacked check reads exactly what fock.report gives.
    rng = np.random.default_rng(164)
    states = [random_state(32, rng) for _ in range(20)]
    for k in (1, 2, 4):
        table, _ = fock.char_table([[st.amplitudes for st in states]], k, math.pi / k)
        u, u_prime, u_double_prime, v = reports.functionals(table)
        det_plus, det_minus = map(det3, gram_pair(table))
        for i, st in enumerate(states):
            rep = report(st, k, math.pi / k)
            got = (u[i], u_prime[i], u_double_prime[i], v[i], det_plus[i], det_minus[i])
            assert got == (rep.u, rep.u_prime, rep.u_double_prime, rep.v, rep.det_plus, rep.det_minus)


# ---------------------------------------------------------------------------
# Gram determinants


def test_gram_det_plus_zero_for_number_state():
    assert report(number_state(5, n_max=8), 1, math.pi).det_plus == pytest.approx(0.0, abs=1e-12)


def test_gram_det_minus_zero_for_vacuum():
    assert report(number_state(0, n_max=3), 1, math.pi).det_minus == pytest.approx(0.0, abs=1e-12)


def test_gram_det_plus_zero_at_phi_zero():
    rng = np.random.default_rng(37)
    st = random_state(30, rng)
    assert report(st, 2, 0.0).det_plus == pytest.approx(0.0, abs=1e-12)


def test_gram_dets_match_explicit_formulas():
    # Independent oracle: the expanded determinant expressions.
    rng = np.random.default_rng(38)
    for _ in range(40):
        n_max = int(rng.integers(4, 65))
        st = random_state(n_max, rng)
        k = int(rng.integers(1, min(4, n_max) + 1))
        phi = float(rng.uniform(-math.pi, math.pi))
        cs = char_set(st, k, phi)
        p2 = abs(cs.number_char) ** 2
        t2 = abs(cs.phase_char) ** 2
        o2 = abs(cs.cross_char) ** 2
        theta = cs.cross_char * cs.number_char * np.conj(cs.phase_char)
        ref_plus = 1 - p2 - t2 - o2 + 2 * theta.real
        w = np.exp(1j * k * phi)
        ref_minus = 1 - p2 - t2 - o2 + 2 * (w * theta).real - cs.pi_k * (1 - p2)
        rep = report(st, k, phi)
        assert rep.det_plus == pytest.approx(ref_plus, abs=1e-12)
        assert rep.det_minus == pytest.approx(ref_minus, abs=1e-12)


def test_closed_form_gram_dets_match_det3_with_pi_k():
    # Number states (pi_k = 0 or 1), phase-coherent states near |xi| = 1 and
    # random states, at and away from the stringent point.
    rng = np.random.default_rng(41)
    states = [number_state(n, n_max=6) for n in range(4)]
    states += [families.build(families.PhaseCoherent(xi)) for xi in (0.9, 0.5j, 0.99)]
    states += [random_state(int(rng.integers(3, 40)), rng) for _ in range(10)]
    with_pi_k = 0
    for st in states:
        for k in (1, 2, 3):
            for phi in (math.pi / k, 0.7, 0.0):
                cs = char_set(st, k, phi)
                with_pi_k += cs.pi_k > 0.0
                for g in gram_pair(cs):
                    assert abs(det3(g) - np.linalg.det(full_matrix(g.diag, g.upper))) <= 1e-12
    assert with_pi_k >= len(states)


def test_array_char_set_gives_the_scalar_dets_exactly():
    rng = np.random.default_rng(42)
    sets = [
        char_set(random_state(int(rng.integers(3, 30)), rng), int(rng.integers(1, 4)),
                 float(rng.uniform(-math.pi, math.pi)))
        for _ in range(60)
    ]
    names = ("number_char", "phase_char", "cross_char", "weyl", "pi_k")
    stacked = CharSet(*(np.array([getattr(cs, name) for cs in sets]) for name in names))
    det_plus, det_minus = map(det3, gram_pair(stacked))
    assert det_plus.shape == det_minus.shape == (60,)
    for i, cs in enumerate(sets):
        assert (det_plus[i], det_minus[i]) == tuple(map(det3, gram_pair(cs)))


def test_gram_positivity_random_sample():
    rng = np.random.default_rng(39)
    for n_max in (8, 32, 128):
        for _ in range(40):
            st = random_state(n_max, rng)
            for k in (1, 2, 4):
                rep = report(st, k, math.pi / k)
                assert rep.det_plus >= -1e-10
                assert rep.det_minus >= -1e-10


# ---------------------------------------------------------------------------
# reports


def test_report_number_state_saturates_sums():
    rep = report(number_state(4, n_max=9), 1, math.pi)
    assert rep.applicable
    assert rep.u == pytest.approx(1.0, abs=1e-12)
    assert rep.u_prime == pytest.approx(1.0, abs=1e-12)
    assert rep.u_double_prime == pytest.approx(1.0, abs=1e-12)
    assert rep.v == 0.0
    assert rep.slack_u == pytest.approx(0.0, abs=1e-12)
    assert rep.slack_v == pytest.approx(0.5, abs=1e-12)


def test_report_phase_coherent_049():
    st = families.build(families.PhaseCoherent(0.49))
    rep = report(st, 1, math.pi)
    assert rep.v == pytest.approx(0.300, abs=1e-3)
    assert rep.applicable


def test_report_not_applicable_off_stringent_point():
    st = families.build(families.PhaseCoherent(0.4))
    rep = report(st, 2, math.pi)  # k*phi = 2*pi, not the stringent point
    assert not rep.applicable
    assert rep.slack_u is None and rep.slack_v is None
    assert rep.u_prime is not None and rep.u_double_prime is not None
    rep = report(st, 2, math.pi / 2)
    assert rep.applicable


def test_report_bounds_random_states():
    rng = np.random.default_rng(40)
    for _ in range(60):
        n_max = int(rng.integers(8, 129))
        st = random_state(n_max, rng)
        k = int(rng.integers(1, 5))
        rep = report(st, k, math.pi / k)
        assert rep.u <= 1.0 + 1e-9
        assert rep.u_prime <= 1.0 + 1e-9
        assert rep.u_double_prime <= 1.0 + 1e-9
        assert rep.v <= 0.5 + 1e-9
        assert rep.det_plus >= -1e-10 and rep.det_minus >= -1e-10


# ---------------------------------------------------------------------------
# phase distribution and mean photon number


def test_phase_distribution_number_state_flat():
    grid = np.linspace(-math.pi, math.pi, 257, endpoint=False)
    dens = phase_distribution(number_state(3, n_max=6), grid)
    assert np.allclose(dens, 1.0 / (2.0 * math.pi), atol=1e-12)


def test_phase_distribution_normalization_and_peak():
    st = families.build(families.PhaseCoherent(0.6))
    grid = np.linspace(-math.pi, math.pi, 2048, endpoint=False)
    dens = phase_distribution(st, grid)
    total = float(np.sum(dens)) * (2.0 * math.pi / grid.size)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert grid[int(np.argmax(dens))] == pytest.approx(0.0, abs=0.01)


def test_phase_distribution_moments_match_char_set():
    rng = np.random.default_rng(41)
    st = random_state(100, rng)
    grid = np.linspace(-math.pi, math.pi, 1024, endpoint=False)
    dens = phase_distribution(st, grid)
    h = 2.0 * math.pi / grid.size
    for k in (1, 2, 5):
        moment = complex(np.sum(np.exp(1j * k * grid) * dens) * h)
        assert abs(moment - np.conj(char_set(st, k, 0.5).phase_char)) < 1e-8


def dense_density(st, grid):
    n = np.arange(st.amplitudes.size)
    return np.abs(np.exp(-1j * np.outer(grid, n)) @ st.amplitudes) ** 2 / (2.0 * math.pi)


@pytest.mark.parametrize(
    "n_max,points,phi0",
    [
        (40, 97, -math.pi),  # odd M
        (300, 64, -math.pi),  # M < n_max + 1: amplitudes fold modulo M
        (50, 128, 0.0),  # nonzero offset from the -pi convention
        (20, 33, 1.3),
    ],
)
def test_phase_distribution_matches_direct_sum(n_max, points, phi0):
    st = random_state(n_max, np.random.default_rng(n_max + points))
    grid = np.linspace(phi0, phi0 + 2.0 * math.pi, points, endpoint=False)
    assert np.max(np.abs(phase_distribution(st, grid) - dense_density(st, grid))) < 1e-12


def test_phase_distribution_grid_validation():
    with pytest.raises(ValueError, match="grid"):
        phase_distribution(number_state(1), np.array([0.0]))
    st = number_state(1)
    for grid in (
        np.linspace(-math.pi, math.pi, 64),  # endpoint included: not one period
        np.linspace(-math.pi, math.pi, 64, endpoint=False)[::-1],
        np.sort(np.random.default_rng(4).uniform(-math.pi, math.pi, 64)),
    ):
        with pytest.raises(ValueError, match="one period"):
            phase_distribution(st, grid)
    for index, value in ((0, math.nan), (5, math.nan), (5, math.inf)):
        grid = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        grid[index] = value
        with pytest.raises(ValueError, match="finite"):
            phase_distribution(st, grid)
    # At |phi| = 1e17 the tolerance exceeds the step: equal points would pass.
    st = families.build(families.PhaseCoherent(0.5))
    for grid in (np.full(64, 1e17), np.linspace(1e17, 1e17 + 2.0 * math.pi, 64, endpoint=False)):
        with pytest.raises(ValueError, match="cannot be told apart"):
            phase_distribution(st, grid)


def test_mean_photon():
    assert mean_photon(number_state(3)) == 3.0
    st = families.build(families.PhaseCoherent(0.49))
    assert mean_photon(st) == pytest.approx(0.2401 / 0.7599, abs=1e-6)
    # inverting nbar = t/(1-t): nbar = 0.6 needs t = 0.375
    st = families.build(families.PhaseCoherent(math.sqrt(0.375)))
    assert mean_photon(st) == pytest.approx(0.6, abs=1e-9)


# ---------------------------------------------------------------------------
# verify's fock suite


def _quoted(amps: str) -> np.ndarray:
    return FockState([complex(x.replace(" ", "")) for x in amps[1:-1].split(",")]).amplitudes


def _run_fock_turned(monkeypatch, **turns):
    # verify.run_fock(9, 5) (3 states per n_max) with fock.char_set's named fields
    # multiplied by their turns off the stringent points, where only the per-state
    # checks read char_set.  Returns the result and the (state, k, phi) of each
    # per-state check, recorded from its first char_set call.
    calls, real_char_set = [], fock.char_set

    def turned_char_set(st, k, phi):
        calls.append((st, k, phi))
        cs = real_char_set(st, k, phi)
        if phi == math.pi / k:
            return cs
        return dataclasses.replace(cs, **{name: getattr(cs, name) * t for name, t in turns.items()})

    monkeypatch.setattr(fock, "char_set", turned_char_set)
    res = verify.run_fock(9, 5)
    monkeypatch.setattr(fock, "char_set", real_char_set)
    drawn = calls[:2 * 9:2]  # each state reads the set at (k, phi), then at (k, -phi)
    assert [(st, k, -phi) for st, k, phi in drawn] == calls[1:2 * 9:2]
    assert [st.n_max for st, _, _ in drawn] == [8] * 3 + [32] * 3 + [128] * 3
    return res, drawn


_PER_STATE = {
    "phase": r"fock n_max=(\d+) k=(\d+) phi=(\S+): phase char off its slice sum by \S+; amplitudes=(.*)",
    "weyl": r"fock n_max=(\d+) k=(\d+) phi=(\S+): Weyl relation residual \S+; amplitudes=(.*)",
    "hermitian": r"fock n_max=(\d+) k=(\d+) phi=(\S+): number char not Hermitian in phi; amplitudes=(.*)",
}


def _assert_quotes_state(m, st, k, phi):
    # A per-state line names the state's own n_max, k and phi and rebuilds it bit for bit.
    assert (int(m.group(1)), int(m.group(2)), float(m.group(3))) == (st.n_max, k, phi)
    assert np.array_equal(_quoted(m.group(4)), st.amplitudes)


def test_fock_suite_reports_every_failure_in_state_order(monkeypatch):
    # The tolerances fail every det and bound check; the turned number, phase
    # and cross chars fail each state's Hermiticity, phase and Weyl checks.
    # Per n_max, the table lines come state by state, each state's k = 1, 2, 4
    # in order, and the per-state lines follow in state order.
    monkeypatch.setattr(verify, "_DET_TOL", 10.0)
    monkeypatch.setattr(verify, "_BOUND_TOL", -10.0)
    turn = np.exp(0.1j)
    res, drawn = _run_fock_turned(monkeypatch, number_char=turn, phase_char=turn, cross_char=turn)
    monkeypatch.undo()
    assert res.checks == 3 * 3 * (3 + 3) + 2 * (2 + 2)

    patterns = {
        "det": r"fock n_max=(\d+) k=(\d+): Gram determinant negative \((\S+), (\S+)\); amplitudes=(.*)",
        "bound": r"fock n_max=(\d+) k=(\d+): (U|U'|U''|V)=(\S+) exceeds (\S+); amplitudes=(.*)",
        **_PER_STATE,
    }
    table_kinds = ["det", "bound", "bound", "bound", "bound"] * 3
    block = 3 * (len(table_kinds) + 3)  # the lines of one n_max
    stacked = res.failures[: 3 * block]
    assert not any("Gram determinant" in msg or " exceeds " in msg for msg in res.failures[len(stacked):])
    for s, (st, k, phi) in enumerate(drawn):
        lines = stacked[block * (s // 3):][:block]
        table = lines[len(table_kinds) * (s % 3):][: len(table_kinds)]
        own = lines[3 * len(table_kinds) + 3 * (s % 3):][:3]
        found = [re.fullmatch(patterns[kind], msg) for kind, msg in zip(table_kinds, table)]
        assert all(found), table
        assert all(int(m.group(1)) == st.n_max for m in found)
        assert [int(m.group(2)) for m in found] == [1] * 5 + [2] * 5 + [4] * 5
        for j, m in enumerate(found):
            assert np.array_equal(_quoted(m.group(m.re.groups)), st.amplitudes)
            k_table = int(m.group(2))
            rep = report(st, k_table, math.pi / k_table)
            if j % 5 == 0:
                assert m.group(3, 4) == (f"{rep.det_plus:.3e}", f"{rep.det_minus:.3e}")
            else:
                name, value, limit = m.group(3), float(m.group(4)), float(m.group(5))
                assert name == ("U", "U'", "U''", "V")[j % 5 - 1]
                assert value == {"U": rep.u, "U'": rep.u_prime, "U''": rep.u_double_prime, "V": rep.v}[name]
                assert limit == (0.5 if name == "V" else 1.0)
        found = [re.fullmatch(patterns[kind], msg) for kind, msg in zip(("phase", "weyl", "hermitian"), own)]
        assert all(found), own
        for m in found:
            _assert_quotes_state(m, st, k, phi)
    assert not any("np.float64(" in msg or "np.complex128(" in msg for msg in res.failures)


def test_fock_suite_reads_the_production_cross_char(monkeypatch):
    # A cross char turned by 1e-6 rad breaks weyl * <Edag^k exp(-i phi n)> =
    # <exp(-i phi n) Edag^k> for every drawn state, and nothing else per state.
    res, drawn = _run_fock_turned(monkeypatch, cross_char=np.exp(1e-6j))
    weyl = [re.fullmatch(_PER_STATE["weyl"], msg) for msg in res.failures[: len(drawn)]]
    assert all(weyl), res.failures
    for m, (st, k, phi) in zip(weyl, drawn):
        _assert_quotes_state(m, st, k, phi)
    # The rest: the dense-oracle check of the two later states at k = 1, 2.
    assert len(res.failures) == len(drawn) + 4
    assert all("disagrees with dense oracle" in msg for msg in res.failures[len(drawn):])

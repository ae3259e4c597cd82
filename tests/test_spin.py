"""Spin-like Weyl pair: phase states, operator identities, characteristic
sets against dense oracles, bounds, the closed-form Gram kernel, the
all-pairs table and the batched verify suite, and the qubit closed forms."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest

from test_numerics import full_matrix
from weyl_uncert import reports, spin, verify
from weyl_uncert.numerics import det3
from weyl_uncert.reports import CharSet, gram_pair
from weyl_uncert.spin import (
    QuditState,
    SpinSystem,
    certainty_bound,
    char_set,
    cyclic_phase,
    gram_dets,
    phase_state,
    qubit_char,
    random_state,
    report,
    weyl_angle,
    weyl_defect,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# The d = 2 pair in the raw basis to the Pauli convention: global phase i and
# conjugation by diag(1, -i) (test_pauli_relabeling_exact).
PAULI_FRAME = np.diag([1.0 + 0.0j, -1.0j])


def production_ops(d):
    """shift and clock as the production code applies them: the signed roll
    of the identity and the diagonal of clock phases."""
    return spin._apply_shift(d, 1, np.eye(d, dtype=complex)), np.diag(spin._unit_phases(d, 1))


def assert_det3_matches_numpy(cs):
    # numpy's LU determinant of the full matrices is the independent oracle.
    for g in gram_pair(cs):
        assert abs(det3(g) - np.linalg.det(full_matrix(g.diag, g.upper))) <= 1e-12


def qudit_from_bloch(s):
    """Pure qubit with Bloch vector s in the Pauli convention, mapped back to
    the raw basis through PAULI_FRAME."""
    sx, sy, sz = s
    theta = math.acos(max(-1.0, min(1.0, sz)))
    phi = math.atan2(sy, sx)
    chi = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex)
    return QuditState(SpinSystem(2), PAULI_FRAME.conj().T @ chi)


# ---------------------------------------------------------------------------
# phase states and operators


def test_phase_state_equal_weights_d2():
    st = phase_state(SpinSystem(2), 0.5)
    assert np.allclose(np.abs(st.amplitudes), 1.0 / math.sqrt(2.0))


def test_phase_state_d3_center_is_uniform():
    st = phase_state(SpinSystem(3), 0)
    assert np.allclose(st.amplitudes, 1.0 / math.sqrt(3.0))


def test_phase_state_is_shift_eigenvector():
    system = SpinSystem(5)
    st = phase_state(system, 2)
    resid = spin._apply_shift(5, 1, st.amplitudes) - np.exp(2j * math.pi * 2 / 5) * st.amplitudes
    assert np.linalg.norm(resid) < 1e-12


def test_phase_state_label_out_of_range():
    with pytest.raises(ValueError, match="m_tilde"):
        phase_state(SpinSystem(3), 2)
    with pytest.raises(ValueError, match="m_tilde"):
        phase_state(SpinSystem(2), 0.0)  # labels are half-integers for even d
    # Labels round cannot take fail the range check too, before the sum or round.
    for bad in (math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="m_tilde must lie in -j..j in integer steps"):
            phase_state(SpinSystem(3), bad)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_operators_unitary(d):
    for op in production_ops(d):
        assert np.max(np.abs(op @ op.conj().T - np.eye(d))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_operator_dth_power_parity(d):
    # Half-integer labels make the d-th power (-1)^(d-1) times the identity,
    # established with the matrix-power oracle.
    sign = (-1.0) ** (d - 1)
    for op in production_ops(d):
        powered = np.linalg.matrix_power(op, d)
        assert np.max(np.abs(powered - sign * np.eye(d))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 7, 16, 33])
def test_shift_matches_direct_construction(d):
    system = SpinSystem(d)
    e, f = verify._dense_shift(d), verify._dense_clock(d)
    shift, clock = production_ops(d)
    assert np.max(np.abs(shift - e)) < 1e-12
    assert np.max(np.abs(clock - f)) < 1e-12
    st = random_state(system, np.random.default_rng(d))
    c = st.amplitudes
    # A d x 3 block takes the 2-D path of the roll, as the identity does.
    block = np.stack([c, c.conj(), np.roll(c, 1)], axis=1)
    # k over two full periods each way reaches every roll r and both signs
    # of the per-period factor (-1)^(d-1) on every wrapped entry.
    for k in range(-2 * d, 2 * d + 1):
        ell = 3 * k + 1
        ek = np.linalg.matrix_power(e, k)
        rolled = spin._apply_shift(d, k, block)
        assert np.max(np.abs(rolled - ek @ block)) < 1e-12
        for i in range(3):
            assert np.array_equal(rolled[:, i], spin._apply_shift(d, k, block[:, i]))
        fl = np.linalg.matrix_power(f, ell)
        cs = char_set(st, k, ell)
        assert abs(cs.number_char - np.vdot(c, fl @ c)) < 1e-12
        assert abs(cs.phase_char - np.vdot(c, ek @ c)) < 1e-12
        assert abs(cs.cross_char - np.vdot(c, fl.conj().T @ ek @ c)) < 1e-12
        loop = np.linalg.inv(ek) @ fl.conj().T @ ek @ fl
        assert abs(cyclic_phase(st, k, ell) - np.vdot(c, loop @ c)) < 1e-12


def test_pauli_relabeling_exact():
    frame = PAULI_FRAME.conj().T
    e = 1j * (PAULI_FRAME @ verify._dense_shift(2) @ frame)
    f = 1j * (PAULI_FRAME @ verify._dense_clock(2) @ frame)
    assert np.max(np.abs(e - SIGMA_X)) <= 1e-12
    assert np.max(np.abs(f - SIGMA_Z)) <= 1e-12
    assert np.array_equal(-1j * SIGMA_Z @ SIGMA_X, SIGMA_Y)


def test_weyl_defect_qubit_anticommutation():
    # sigma_x sigma_z = -sigma_z sigma_x
    assert weyl_defect(SpinSystem(2), 1, 1) < 1e-14
    assert np.max(np.abs(SIGMA_X @ SIGMA_Z + SIGMA_Z @ SIGMA_X)) == 0.0


@pytest.mark.parametrize("d,k,ell", [(5, 2, 3), (3, 3, 1), (4, 3, 5), (16, 9, 31), (64, 17, 100)])
def test_weyl_defect_small(d, k, ell):
    assert weyl_defect(SpinSystem(d), k, ell) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 7, 16])
def test_weyl_defect_matches_dense_oracle(d):
    e, f = verify._dense_shift(d), verify._dense_clock(d)
    for k in range(-d, 2 * d + 1):
        for ell in (-d - 1, 1, d // 2 + 1, 2 * d - 1):
            ek = np.linalg.matrix_power(e, k)
            fl = np.linalg.matrix_power(f, ell)
            phase = np.exp(-2j * math.pi * ((k * ell) % d) / d)
            dense = np.max(np.abs(ek @ fl - phase * fl @ ek))
            assert abs(weyl_defect(SpinSystem(d), k, ell) - dense) < 1e-13


def test_weyl_defect_negative_powers():
    assert weyl_defect(SpinSystem(6), -4, 7) < 1e-12
    assert weyl_defect(SpinSystem(6), 5, -3) < 1e-12


# ---------------------------------------------------------------------------
# clock phases from the kept roots of unity


def fresh_unit_phases(d, p):
    # One complex exponential per call, of the exponent reduced in int64.
    t = np.arange(d)
    return np.exp(1j * math.pi * (((2 * t - (d - 1)) * p) % (2 * d)) / d)


@pytest.mark.parametrize("d", [*range(2, 71), 255, 256, 257, 1023, 1024, 1025])
def test_unit_phases_are_the_fresh_exponential_bitwise(d):
    for p in [*range(-3 * d, 3 * d + 1), np.arange(1, d + 1)[:, None]]:
        got, want = spin._unit_phases(d, p), fresh_unit_phases(d, p)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), p


def test_clock_phase_table_is_kept_invisibly():
    # One read-only table for the last d; a call at another d in between
    # builds that d's table, and this d's is rebuilt with the same bits.
    d, rng = 5, np.random.default_rng(35)
    st, other = random_state(SpinSystem(d), rng), random_state(SpinSystem(8), rng)
    spin._roots.cache_clear()
    first = spin._unit_phases(d, 3)
    assert spin._roots.cache_info()[:2] == (0, 1)  # (hits, misses)
    kept = [x.copy() for x in spin._roots(d)]
    assert spin._roots.cache_info()[:2] == (1, 1)
    for table in spin._roots(d):
        assert not table.flags.writeable and not np.shares_memory(table, first)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    before = repr(report(st, 2, 3)), repr(char_set(st, 4, -7)), repr(cyclic_phase(st, 1, 2))
    report(other, 1, 1)  # d = 8 takes the one slot
    assert spin._roots.cache_info().currsize == 1 and spin._roots.cache_info().misses == 2
    assert (repr(report(st, 2, 3)), repr(char_set(st, 4, -7)), repr(cyclic_phase(st, 1, 2))) == before
    assert all(x.tobytes() == y.tobytes() for x, y in zip(spin._roots(d), kept))


@pytest.mark.parametrize("d", [3, 4, 7, 1025])
def test_clock_powers_past_int64_equal_their_reduced_power(d):
    # Formed in int64, (2t - d + 1) l wrapped silently from |l| >= 2^63 / 2d
    # (weyl_defect(SpinSystem(3), 1, 2**62) was 1.73) and raised an
    # OverflowError from 2^63.  Both powers have period 2d exactly.
    system = SpinSystem(d)
    st = random_state(system, np.random.default_rng(d))
    for big in (2**62, 2**63 - 1, 2**63, 10**30, -10**30):
        r = big % (2 * d)
        assert spin._unit_phases(d, big).tobytes() == spin._unit_phases(d, r).tobytes()
        assert weyl_defect(system, 1, big) == weyl_defect(system, 1, r) < 1e-12
        assert weyl_defect(system, big, 2) == weyl_defect(system, r, 2)
        for k, ell, kr, lr in ((1, big, 1, r), (big, 3, r, 3), (big, big, r, r)):
            assert repr(char_set(st, k, ell)) == repr(char_set(st, kr, lr))
            assert repr(report(st, k, ell)) == repr(report(st, kr, lr))
            assert cyclic_phase(st, k, ell) == cyclic_phase(st, kr, lr)


# ---------------------------------------------------------------------------
# angle and bound


def test_weyl_angle_values():
    assert weyl_angle(SpinSystem(2), 1, 1) == math.pi
    assert weyl_angle(SpinSystem(4), 1, 1) == pytest.approx(math.pi / 2, abs=0.0)
    assert weyl_angle(SpinSystem(3), 3, 2) == 0.0
    assert weyl_angle(SpinSystem(5), 2, 2) == pytest.approx(-2 * math.pi / 5)


def test_certainty_bound_values():
    assert certainty_bound(math.pi) == 1.0
    assert certainty_bound(1e-6) == pytest.approx(2.0, abs=1e-6)
    assert certainty_bound(math.pi / 2) == pytest.approx(4.0 - 2.0 * math.sqrt(2.0), rel=1e-12)
    assert certainty_bound(0.0) == 2.0


def mp_certainty_bound(gamma):
    # The defining form 2 sqrt(2) (sqrt(2) - sqrt(1 - cos g)) / (1 + cos g)
    # at the float gamma given.  The float nearest pi leaves 1 + cos g near
    # 1e-32, so 80 digits keep about 48 of them.
    with mpmath.workdps(80):
        g = mpmath.mpf(gamma)
        s2 = mpmath.sqrt(2)
        return float(2 * s2 * (s2 - mpmath.sqrt(1 - mpmath.cos(g))) / (1 + mpmath.cos(g)))


def test_certainty_bound_matches_mpmath():
    assert certainty_bound(0.0) == 2.0 and certainty_bound(math.pi) == 1.0
    for d in (2, 3, 5, 8, 64, 511, 512, 1024):
        system = SpinSystem(d)
        for q in range(d):
            gamma = weyl_angle(system, 1, q)
            assert abs(certainty_bound(gamma) - mp_certainty_bound(gamma)) <= 1e-15


def test_certainty_bound_monotone():
    gammas = np.linspace(1e-4, math.pi, 1000)
    values = [certainty_bound(g) for g in gammas]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert min(values) >= 1.0 - 1e-12
    assert max(values) <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# characteristic sets


def test_char_set_number_eigenstate():
    d = 5
    system = SpinSystem(d)
    for idx, m in enumerate(system.m_values()):
        c = np.zeros(d, dtype=complex)
        c[idx] = 1.0
        st = QuditState(system, c)
        for ell in (1, 2, 3):
            cs = char_set(st, 1, ell)
            assert cs.number_char == pytest.approx(np.exp(2j * math.pi * m * ell / d), abs=1e-12)
            assert abs(cs.phase_char) < 1e-12


def test_char_set_phase_state():
    system = SpinSystem(4)
    st = phase_state(system, 1.5)
    for k in (1, 2, 3):
        cs = char_set(st, k, 1)
        assert abs(abs(cs.phase_char) - 1.0) < 1e-12
        assert abs(cs.number_char) < 1e-12


def test_char_set_against_dense_oracle():
    rng = np.random.default_rng(21)
    for d in (2, 3, 5, 8):
        system = SpinSystem(d)
        e, f = verify._dense_shift(d), verify._dense_clock(d)
        for _ in range(5):
            st = random_state(system, rng)
            c = st.amplitudes
            for k in range(1, d + 1):
                for ell in range(1, d + 1):
                    cs = char_set(st, k, ell)
                    ek = np.linalg.matrix_power(e, k)
                    fl = np.linalg.matrix_power(f, ell)
                    assert abs(cs.number_char - np.vdot(c, fl @ c)) < 1e-12
                    assert abs(cs.phase_char - np.vdot(c, ek @ c)) < 1e-12
                    assert abs(cs.cross_char - np.vdot(c, fl.conj().T @ ek @ c)) < 1e-12


def test_cyclic_excursion_phase():
    rng = np.random.default_rng(22)
    for d in (2, 3, 4, 7, 12):
        system = SpinSystem(d)
        for _ in range(5):
            st = random_state(system, rng)
            k = int(rng.integers(1, 2 * d + 1))
            ell = int(rng.integers(1, 2 * d + 1))
            expected = np.exp(-2j * math.pi * ((k * ell) % d) / d)
            assert abs(cyclic_phase(st, k, ell) - expected) < 1e-12
            assert char_set(st, k, ell).weyl == expected


# ---------------------------------------------------------------------------
# Gram determinants and reports


def test_gram_dets_number_eigenstate_singular():
    system = SpinSystem(3)
    c = np.zeros(3, dtype=complex)
    c[0] = 1.0
    dp, dm = gram_dets(QuditState(system, c), 1, 1)
    assert dp == pytest.approx(0.0, abs=1e-12)
    assert dm == pytest.approx(0.0, abs=1e-12)


def test_gram_dets_trivial_powers_singular():
    # k = l = d makes all three vectors collinear up to the parity phase.
    rng = np.random.default_rng(23)
    for d in (3, 5, 2, 4, 8, 16):
        st = random_state(SpinSystem(d), rng)
        dp, dm = gram_dets(st, d, d)
        assert dp == pytest.approx(0.0, abs=1e-10)
        assert dm == pytest.approx(0.0, abs=1e-10)
        assert_det3_matches_numpy(char_set(st, d, d))


def test_gram_dets_minus_pair_matches_direct_char_set():
    # gram_dets derives the (-k, -l) matrix from the (k, l) set through the
    # Weyl phase; it must agree with the set computed at (-k, -l) directly.
    rng = np.random.default_rng(25)
    for d in (3, 4, 5, 8):
        st = random_state(SpinSystem(d), rng)
        for k in range(1, d + 1):
            for ell in range(1, d + 1):
                dp, dm = gram_dets(st, k, ell)
                assert dp == pytest.approx(det3(gram_pair(char_set(st, k, ell))[0]), abs=1e-12)
                assert dm == pytest.approx(det3(gram_pair(char_set(st, -k, -ell))[0]), abs=1e-12)


def test_gram_positivity_random_sample():
    rng = np.random.default_rng(24)
    for d in (2, 3, 4, 5, 8, 16):
        system = SpinSystem(d)
        for _ in range(25):
            st = random_state(system, rng)
            for _ in range(4):
                k = int(rng.integers(1, d + 1))
                ell = int(rng.integers(1, d + 1))
                dp, dm = gram_dets(st, k, ell)
                assert dp >= -1e-10
                assert dm >= -1e-10
                g = gram_pair(char_set(st, k, ell))[0]
                assert np.linalg.eigvalsh(full_matrix(g.diag, g.upper))[0] >= -1e-10


def test_report_bounds_hold_d5_all_pairs():
    rng = np.random.default_rng(25)
    system = SpinSystem(5)
    for _ in range(20):
        st = random_state(system, rng)
        for k in range(1, 6):
            for ell in range(1, 6):
                rep = report(st, k, ell)
                assert rep.u <= rep.bound + 1e-9
                assert rep.v <= rep.bound / 2 + 1e-9
                assert rep.u_double_prime is None
                assert rep.slack_u >= -1e-10
                assert rep.slack_v >= -1e-10


def test_report_triple_sum_at_gamma_pi():
    rng = np.random.default_rng(26)
    for d in (2, 4, 8, 16):
        system = SpinSystem(d)
        for _ in range(10):
            st = random_state(system, rng)
            rep = report(st, 1, d // 2)
            assert rep.applicable
            assert rep.bound == 1.0
            assert rep.u_prime is not None
            assert rep.u_prime <= 1.0 + 1e-9


def test_report_not_applicable_off_pi():
    st = random_state(SpinSystem(3), np.random.default_rng(27))
    rep = report(st, 1, 1)
    assert not rep.applicable
    assert rep.u_prime is None
    assert rep.slack_u_prime is None


def test_report_saturation_bloch_diagonal():
    # Pure state with equal clock/shift components: both relations saturate.
    st = qudit_from_bloch((1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)))
    rep = report(st, 1, 1)
    assert rep.u == pytest.approx(1.0, abs=1e-12)
    assert rep.v == pytest.approx(0.5, abs=1e-12)
    assert rep.u_prime == pytest.approx(1.0, abs=1e-12)


def test_report_pole_state():
    st = qudit_from_bloch((0.0, 0.0, 1.0))
    rep = report(st, 1, 1)
    assert rep.u == pytest.approx(1.0, abs=1e-12)
    assert rep.v == pytest.approx(0.0, abs=1e-12)


def test_pure_states_with_sy_zero_saturate_sum():
    for theta in np.linspace(0.0, math.pi, 17):
        st = qudit_from_bloch((math.sin(theta), 0.0, math.cos(theta)))
        rep = report(st, 1, 1)
        assert rep.u == pytest.approx(1.0, abs=1e-12)


def test_gram_det_equator_state():
    # Bloch (0,1,0): both plain characteristic functions vanish and the
    # determinant reduces to 1 - |cross|^2 = 0.
    st = qudit_from_bloch((0.0, 1.0, 0.0))
    cs = char_set(st, 1, 1)
    assert abs(cs.number_char) < 1e-12
    assert abs(cs.phase_char) < 1e-12
    assert abs(abs(cs.cross_char) - 1.0) < 1e-12
    dp, _ = gram_dets(st, 1, 1)
    assert dp == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# closed-form Gram kernel


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_closed_form_gram_dets_number_and_phase_states(d):
    # Every pair, k = l = d included, of the states that saturate the bounds.
    system = SpinSystem(d)
    states = [QuditState(system, np.eye(d)[i]) for i in range(d)]
    states += [phase_state(system, m) for m in system.m_values()]
    for st in states:
        for k in range(1, d + 1):
            for ell in range(1, d + 1):
                assert_det3_matches_numpy(char_set(st, k, ell))


@pytest.mark.parametrize(
    "bloch",
    [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-0.6, 0.8, 0.0),  # equator
     (1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)), (0.0, 1 / math.sqrt(2), -1 / math.sqrt(2)),  # diagonal
     (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)],  # poles
)
def test_closed_form_gram_dets_bloch_surface(bloch):
    st = qudit_from_bloch(bloch)
    for k, ell in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        assert_det3_matches_numpy(char_set(st, k, ell))
        assert_det3_matches_numpy(qubit_char(bloch, k, ell))


def test_report_takes_the_closed_form_dets():
    st = random_state(SpinSystem(5), np.random.default_rng(31))
    for k, ell in ((1, 1), (2, 3), (5, 5)):
        rep = report(st, k, ell)
        dets = tuple(map(det3, gram_pair(char_set(st, k, ell))))
        assert (rep.det_plus, rep.det_minus) == dets == gram_dets(st, k, ell)


# ---------------------------------------------------------------------------
# all-pairs table


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 33])
def test_char_table_matches_char_set_on_every_pair(d):
    st = random_state(SpinSystem(d), np.random.default_rng(100 + d))
    table = spin.char_table(st.amplitudes)
    fields = number, phase, cross, weyl, pi_k = tuple(vars(table).values())
    assert all(x.shape == (d, d) for x in fields) and np.all(pi_k == 0.0)
    for k in range(1, d + 1):
        for ell in range(1, d + 1):
            cs = char_set(st, k, ell)
            assert abs(number[k - 1, ell - 1] - cs.number_char) <= 1e-13
            assert abs(phase[k - 1, ell - 1] - cs.phase_char) <= 1e-13
            assert abs(cross[k - 1, ell - 1] - cs.cross_char) <= 1e-13
            assert weyl[k - 1, ell - 1] == spin._weyl_phase(d, k, ell) == cs.weyl


def test_char_table_of_no_rows_is_empty():
    for amps in (np.zeros((0, 4)), np.zeros((0, 4), complex)):
        table = spin.char_table(amps)
        assert all(x.shape == (0, 4, 4) for x in vars(table).values())
    assert all(x.dtype == complex for x in (table.number_char, table.phase_char, table.cross_char))


def test_char_table_of_real_rows_is_the_table_of_the_rows_cast_to_complex():
    rng = np.random.default_rng(34)
    for d, stack in ((4, ()), (5, (3,)), (8, (2, 2))):
        real = rng.standard_normal(stack + (d,))
        real /= np.linalg.norm(real, axis=-1, keepdims=True)
        got, want = vars(spin.char_table(real)), vars(spin.char_table(real.astype(complex)))
        for name, x in got.items():
            assert x.dtype == want[name].dtype and x.tobytes() == want[name].tobytes(), name
    # The characters and the Weyl phase are complex, as for complex rows; pi_k is a real weight.
    table = spin.char_table(np.ones(4) / 2)
    assert [x.dtype for x in vars(table).values()] == [np.complex128] * 4 + [np.float64]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_char_table_matches_dense_oracle(d):
    st = random_state(SpinSystem(d), np.random.default_rng(200 + d))
    c = st.amplitudes
    table = spin.char_table(c)
    number, phase, cross = table.number_char, table.phase_char, table.cross_char
    e, f = verify._dense_shift(d), verify._dense_clock(d)
    for k in range(1, d + 1):
        ek = np.linalg.matrix_power(e, k)
        for ell in range(1, d + 1):
            fl = np.linalg.matrix_power(f, ell)
            assert abs(number[k - 1, ell - 1] - np.vdot(c, fl @ c)) < 1e-12
            assert abs(phase[k - 1, ell - 1] - np.vdot(c, ek @ c)) < 1e-12
            assert abs(cross[k - 1, ell - 1] - np.vdot(c, fl.conj().T @ ek @ c)) < 1e-12


def test_char_table_dets_equal_the_scalar_kernel_exactly():
    # So do the functionals, and so does a stacked table, entry by entry.
    rng = np.random.default_rng(32)
    for d, stack in ((2, ()), (3, ()), (8, ()), (33, ()), (3, (4,)), (16, (4,))):
        amps = [random_state(SpinSystem(d), rng).amplitudes for _ in range(math.prod(stack))]
        table = spin.char_table(np.reshape(amps, stack + (d,)))
        det_plus, det_minus = map(det3, gram_pair(table))
        values = reports.functionals(table)
        assert det_plus.shape == values[0].shape == stack + (d, d)
        for at in np.ndindex(det_plus.shape):
            cs = CharSet(*(x[at].item() for x in vars(table).values()))
            assert (det_plus[at], det_minus[at]) == tuple(map(det3, gram_pair(cs)))
            assert tuple(x[at] for x in values) == reports.functionals(cs)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 33])
def test_stacked_char_table_rows_equal_the_single_state_table(d):
    rng = np.random.default_rng(300 + d)
    amps = np.array([random_state(SpinSystem(d), rng).amplitudes for _ in range(6)])
    assert spin.char_table(amps).cross_char.shape == (6, d, d)
    for stack in (amps, amps.reshape(2, 3, d)):
        rows = [x.reshape(6, d, d) for x in vars(spin.char_table(stack)).values()]
        for i in range(6):
            for got, want in zip(rows, vars(spin.char_table(amps[i])).values()):
                assert np.array_equal(got[i], want)


def test_array_char_set_rejects_an_entry_above_one():
    table = spin.char_table(random_state(SpinSystem(4), np.random.default_rng(33)).amplitudes)
    for name in ("number_char", "phase_char", "cross_char"):
        bad = np.array(getattr(table, name))
        bad.flat[-1] = 1j * (1.0 + 1e-11)
        with pytest.raises(ValueError, match=rf"\|{name}\| exceeds 1"):
            dataclasses.replace(table, **{name: bad})
    for pi_k in (np.array([0.0, 0.5, 1.0 + 1e-11]), np.array([-1e-11, 0.5]), np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="pi_k out of"):
            dataclasses.replace(table, pi_k=pi_k)
    assert dataclasses.replace(table, pi_k=np.array([0.0, 1.0])).pi_k.shape == (2,)


def test_batched_spin_suite_reports_every_failure_in_pair_order(monkeypatch):
    # With these tolerances every drawn pair fails its det, U and V checks,
    # and U' <= 1 as well where gamma = pi.
    monkeypatch.setattr(verify, "_BOUND_TOL", -10.0)
    monkeypatch.setattr(verify, "_DET_TOL", 10.0)
    res = verify.run_spin(6, 1)
    kinds = {"Gram determinant negative": "det", "U=": "U", "V=": "V", "U'=": "U'"}
    groups: list[tuple[tuple[int, int, int], list[str], set[str]]] = []
    for msg in res.failures:
        m = re.fullmatch(r"spin d=(\d+) k=(\d+) l=(\d+): (Gram determinant negative|U=|V=|U'=).*"
                         r"; amplitudes=(.*)", msg)
        assert m is not None, msg
        pair = tuple(int(x) for x in m.group(1, 2, 3))
        if not groups or groups[-1][0] != pair:
            groups.append((pair, [], set()))
        groups[-1][1].append(kinds[m.group(4)])
        groups[-1][2].add(m.group(5))
    pairs = [g[0] for g in groups]
    dims = [p[0] for p in pairs]
    assert dims == sorted(dims, key=(2, 3, 4, 5, 8, 16).index)
    for d in (2, 3, 4, 5, 8):
        grid = [(d, k, ell) for k in range(1, d + 1) for ell in range(1, d + 1)]
        assert [p for p in pairs if p[0] == d] == grid
    drawn = [p for p in pairs if p[0] == 16]
    assert drawn == sorted(set(drawn)) and len(drawn) == 32
    assert {(16, 1, 8), (16, 1, 16), (16, 16, 16)} <= set(drawn)
    at_pi = [d % 2 == 0 and (k * ell) % d == d // 2 for d, k, ell in pairs]
    for (_, got, amps), triple in zip(groups, at_pi):
        assert got == ["det", "U"] + ["U'"] * triple + ["V"]
        assert len(amps) == 1
    assert len(pairs) == 150 and len(res.failures) == 3 * 150 + sum(at_pi)
    assert res.checks == 150 + 6 + 64 + 49
    assert not any("np.float64(" in msg for msg in res.failures)


def test_stacked_spin_suite_reports_failures_state_by_state(monkeypatch):
    # 18 samples draw 3 states per d, checked in one stacked table per d;
    # failures still come state by state, each state's pairs in grid order,
    # and quote what the state's own table gives.
    drawn, draw = [], spin.random_state

    def recording_random_state(system, rng):
        drawn.append(draw(system, rng))
        return drawn[-1]

    monkeypatch.setattr(spin, "random_state", recording_random_state)
    monkeypatch.setattr(verify, "_BOUND_TOL", -10.0)
    monkeypatch.setattr(verify, "_DET_TOL", 10.0)
    res = verify.run_spin(18, 1)
    blocks: list[tuple[int, str, list[tuple[int, int]]]] = []
    for msg in res.failures:
        m = re.fullmatch(r"spin d=(\d+) k=(\d+) l=(\d+): (Gram determinant negative|U=|V=|U'=)"
                         r"(\S*).*; amplitudes=(.*)", msg)
        assert m is not None, msg
        d, k, ell = (int(x) for x in m.group(1, 2, 3))
        if not blocks or blocks[-1][:2] != (d, m.group(6)):
            blocks.append((d, m.group(6), []))
        if not blocks[-1][2] or blocks[-1][2][-1] != (k, ell):
            blocks[-1][2].append((k, ell))
        if m.group(4) != "Gram determinant negative":
            st = drawn[len(blocks) - 1]
            u, u_prime, _, v = reports.functionals(spin.char_table(st.amplitudes))
            entry = {"U=": u, "V=": v, "U'=": u_prime}[m.group(4)][k - 1, ell - 1]
            assert abs(float(m.group(5)) - float(entry)) <= 1e-15, msg
    dims = (2, 3, 4, 5, 8, 16)
    assert [b[0] for b in blocks] == [d for d in dims for _ in range(3)]
    for i, (d, amps, pairs) in enumerate(blocks):
        assert amps == verify._amps(drawn[i].amplitudes)
        if d <= 8:
            assert pairs == [(k, ell) for k in range(1, d + 1) for ell in range(1, d + 1)]
        else:
            assert pairs == sorted(set(pairs)) == blocks[-1][2] and len(pairs) == 32
    assert res.checks == 3 * (150 + 6) + 64 + 49


def test_spin_failure_message_rebuilds_the_drawn_state_exactly(monkeypatch):
    drawn, draw = [], spin.random_state

    def recording_random_state(system, rng):
        drawn.append(draw(system, rng))
        return drawn[-1]

    monkeypatch.setattr(spin, "random_state", recording_random_state)
    monkeypatch.setattr(verify, "_BOUND_TOL", -10.0)
    res = verify.run_spin(6, 1)
    m = re.fullmatch(r"spin d=(\d+) k=\d+ l=\d+: U=.*; amplitudes=\[(.*)\]", res.failures[0])
    assert m is not None, res.failures[0]
    amps = [complex(x.replace(" ", "")) for x in m.group(2).split(",")]
    rebuilt = spin.QuditState(spin.SpinSystem(int(m.group(1))), amps)
    assert np.array_equal(rebuilt.amplitudes, drawn[0].amplitudes)


def test_spin_failure_message_quotes_the_table_entries_its_check_read(monkeypatch):
    drawn, draw = {}, spin.random_state

    def recording_random_state(system, rng):
        st = draw(system, rng)
        drawn[verify._amps(st.amplitudes)] = st
        return st

    monkeypatch.setattr(spin, "random_state", recording_random_state)
    monkeypatch.setattr(verify, "_BOUND_TOL", -10.0)
    monkeypatch.setattr(verify, "_DET_TOL", 10.0)
    res = verify.run_spin(6, 1)
    quoted = 0
    for msg in res.failures:
        m = re.fullmatch(r"spin d=(\d+) k=(\d+) l=(\d+): (U|V|U')=(\S+) exceeds (\S+); amplitudes=(.*)", msg)
        if m is None:
            assert msg.split(": ")[1].startswith("Gram determinant negative ("), msg
            continue
        d, k, ell = (int(x) for x in m.group(1, 2, 3))
        u, u_prime, _, v = reports.functionals(spin.char_table(drawn[m.group(7)].amplitudes))
        entry = {"U": u, "V": v, "U'": u_prime}[m.group(4)][k - 1, ell - 1]
        assert float(m.group(5)) == float(entry), msg
        gamma = spin.weyl_angle(SpinSystem(d), k, ell)
        bound = spin.certainty_bound(gamma)
        assert float(m.group(6)) == {"U": bound, "V": bound / 2, "U'": 1.0}[m.group(4)], msg
        assert m.group(4) != "U'" or abs(gamma - math.pi) <= 1e-9, msg
        quoted += 1
    assert quoted == 2 * 150 + sum("U'=" in msg for msg in res.failures) > 2 * 150


# ---------------------------------------------------------------------------
# qubit closed forms


def test_qubit_char_axis_cases():
    cs = qubit_char((0.0, 0.0, 1.0))
    assert (cs.number_char, cs.phase_char, cs.cross_char) == (1.0 + 0j, 0.0 + 0j, 0.0 + 0j)
    cs = qubit_char((1.0, 0.0, 0.0))
    assert (cs.number_char, cs.phase_char, cs.cross_char) == (0.0 + 0j, 1.0 + 0j, 0.0 + 0j)
    cs = qubit_char((0.0, 1.0, 0.0))
    assert cs.cross_char == 1j


def test_qubit_char_against_trace_oracle():
    rng = np.random.default_rng(28)
    eye = np.eye(2, dtype=complex)
    for _ in range(300):
        s = rng.standard_normal(3)
        s *= rng.uniform(0.0, 1.0) / np.linalg.norm(s)  # mixed and nearly pure
        rho = (eye + s[0] * SIGMA_X + s[1] * SIGMA_Y + s[2] * SIGMA_Z) / 2.0
        for k, ell in ((1, 1), (1, 2), (2, 1), (3, 3)):
            cs = qubit_char(s, k, ell)
            fz = np.linalg.matrix_power(SIGMA_Z, ell % 2)
            ex = np.linalg.matrix_power(SIGMA_X, k % 2)
            assert abs(cs.number_char - np.trace(rho @ fz)) < 1e-12
            assert abs(cs.phase_char - np.trace(rho @ ex)) < 1e-12
            assert abs(cs.cross_char - np.trace(rho @ fz @ ex)) < 1e-12


def test_qubit_char_rejects_long_bloch():
    with pytest.raises(ValueError, match="Bloch"):
        qubit_char((1.0, 1.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_qubit_char_rejects_non_finite_bloch(bad):
    for i in range(3):
        s = [0.5, 0.5, 0.5]
        s[i] = bad
        for k in (1, 2):
            for ell in (1, 2):
                with pytest.raises(ValueError, match="finite"):
                    qubit_char(s, k, ell)


def test_spin_char_magnitudes_match_qubit_closed_form():
    rng = np.random.default_rng(29)
    for _ in range(50):
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
        st = qudit_from_bloch(s)
        cs_raw = char_set(st, 1, 1)
        cs_pauli = qubit_char(s)
        assert abs(cs_raw.number_char) == pytest.approx(abs(cs_pauli.number_char), abs=1e-12)
        assert abs(cs_raw.phase_char) == pytest.approx(abs(cs_pauli.phase_char), abs=1e-12)
        assert abs(cs_raw.cross_char) == pytest.approx(abs(cs_pauli.cross_char), abs=1e-12)


def test_state_validation():
    with pytest.raises(ValueError, match="normalized"):
        QuditState(SpinSystem(2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        QuditState(SpinSystem(2), np.array([np.inf, 0.0]))
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        QuditState(SpinSystem(3), np.array([1.0, 0.0]))
    given = np.array([0.6, 0.8j])
    st = QuditState(SpinSystem(2), given)
    given[0] = 0.0
    assert st.amplitudes[0] == 0.6 and not st.amplitudes.flags.writeable
    with pytest.raises(ValueError, match="dimension"):
        SpinSystem(1)


@pytest.mark.parametrize("bad", [1.5, 0.5, math.nan, math.inf])
def test_non_integer_powers_are_rejected_naming_k_or_l(bad):
    # k = 1.5 gave weyl_angle pi and, in qubit_char, read as even; char_set's roll raised a TypeError.
    system = SpinSystem(3)
    st = random_state(system, np.random.default_rng(41))
    calls = (lambda k, l: weyl_angle(system, k, l), lambda k, l: qubit_char((0.3, 0.2, 0.1), k, l),
             lambda k, l: char_set(st, k, l), lambda k, l: report(st, k, l),
             lambda k, l: cyclic_phase(st, k, l), lambda k, l: weyl_defect(system, k, l))
    for call in calls:
        for name, pair in (("k", (bad, 1)), ("l", (1, bad))):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
                call(*pair)
    for k, l in ((2, -1), (-3, 4), (0, 5)):  # integers of either sign, and integral floats, name powers
        for call in calls:
            assert call(float(k), float(l)) == call(k, l), (k, l)

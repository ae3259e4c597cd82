"""Single-mode machinery: shift actions, characteristic sets against dense
oracles, Gram determinants, reports and the phase distribution."""

import math

import numpy as np
import pytest

from test_numerics import full_matrix
from weyl_uncert import families, fock, verify
from weyl_uncert.numerics import det3
from weyl_uncert.reports import CharSet, gram_pair
from weyl_uncert.fock import (
    FockState,
    apply_lowering,
    apply_phase_shift,
    apply_raising,
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
# shift actions


def test_lowering_annihilates_vacuum():
    assert np.all(apply_lowering(number_state(0), 1) == 0.0)


def test_one_sided_unitarity_on_vacuum():
    vac = number_state(0, n_max=1)
    raised = apply_raising(vac, 1)  # |1>, one slot longer
    assert np.allclose(raised, [0.0, 1.0, 0.0])
    lowered = np.zeros_like(raised)
    lowered[:-1] = raised[1:]
    assert np.allclose(lowered, [1.0, 0.0, 0.0])  # E Edag |0> = |0>
    low_first = apply_lowering(vac, 1)
    assert np.all(low_first == 0.0)  # Edag E |0> = 0


def test_one_sided_unitarity_random_states():
    rng = np.random.default_rng(31)
    for n_max in (8, 32, 128):
        st = random_state(n_max, rng)
        c = st.amplitudes
        for k in (1, 3, 7):
            raised = apply_raising(st, k)
            back = np.zeros_like(raised)
            back[:-k] = raised[k:]
            assert np.linalg.norm(back[: n_max + 1] - c) <= 1e-12
            assert np.linalg.norm(back[n_max + 1 :]) == 0.0
            lowered = apply_lowering(st, k)
            undone = np.zeros_like(lowered)
            undone[k:] = lowered[:-k]
            projected = c.copy()
            projected[:k] = 0.0
            assert np.linalg.norm(undone - projected) <= 1e-12


def test_phase_shift_full_turn_is_identity():
    rng = np.random.default_rng(32)
    st = random_state(20, rng)
    shifted = apply_phase_shift(st, 2.0 * math.pi)
    assert np.linalg.norm(shifted.amplitudes - st.amplitudes) < 1e-12


def test_single_mode_weyl_relation():
    rng = np.random.default_rng(33)
    for _ in range(30):
        n_max = int(rng.integers(8, 129))
        st = random_state(n_max, rng)
        k = int(rng.integers(1, 9))
        phi = float(rng.uniform(-math.pi, math.pi))
        n = np.arange(n_max + 1)
        lhs = apply_lowering(apply_phase_shift(st, phi), k)
        rhs = np.exp(1j * k * phi) * np.exp(1j * phi * n) * apply_lowering(st, k)
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_shift_domain_errors():
    st = number_state(2, n_max=4)
    for shift in (apply_lowering, apply_raising):
        with pytest.raises(ValueError, match="k must be"):
            shift(st, 0)
    with pytest.raises(ValueError, match="k must be"):
        char_set(st, 0, math.pi)
    # A k above n_max is in the domain: E^k psi = 0.
    assert np.array_equal(apply_lowering(st, 5), np.zeros(5))
    assert apply_lowering(st, 5).dtype == complex


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
    for name in ("number_char", "phase_char", "cross_char"):
        for bad in (complex(math.nan, 0.0), complex(0.0, math.nan), np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match=rf"\|{name}\| exceeds 1 or is NaN"):
                CharSet(**{**ok, name: bad})
    st = random_state(6, np.random.default_rng(40))
    with pytest.raises(ValueError, match="is NaN"):
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
        assert np.array_equal(apply_lowering(st, k), (np.linalg.matrix_power(e, k) @ c)[:5])


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

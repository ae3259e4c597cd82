"""The one report recipe of both systems, ``reports.report``: every field of
``fock.report`` and ``spin.report`` against a test-local copy of the two
recipes it replaced, bit for bit and None for None; its field rule on
synthetic sets; and ``unit_amplitudes`` at overflowing input."""

import math
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest

from test_spin import qudit_from_bloch
from weyl_uncert import fock, reports, spin
from weyl_uncert.numerics import det3
from weyl_uncert.reports import CharSet, UncertaintyReport


def fock_recipe(state, k, phi):
    # fock.report as two separate recipes built it, kept here as the reference.
    cs = fock.char_set(state, k, phi)
    g_plus, g_minus = reports.gram_pair(cs)
    det_plus, det_minus = det3(g_plus), det3(g_minus)
    u, u_prime, u_double_prime, v = reports.functionals(cs)
    applicable = abs(math.remainder(k * phi - math.pi, 2.0 * math.pi)) <= 1e-9
    return UncertaintyReport(
        u=u, v=v, u_prime=u_prime, u_double_prime=u_double_prime,
        det_plus=det_plus, det_minus=det_minus, bound=1.0, applicable=applicable,
        slack_u=(1.0 - u) if applicable else None,
        slack_u_prime=(1.0 - u_prime) if applicable else None,
        slack_u_double_prime=(1.0 - u_double_prime) if applicable else None,
        slack_v=(0.5 - v) if applicable else None,
    )


def spin_recipe(state, k, ell):
    # spin.report as two separate recipes built it, kept here as the reference.
    cs = spin.char_set(state, k, ell)
    gamma = spin.weyl_angle(state.system, k, ell)
    bound = spin.certainty_bound(gamma)
    u, u_prime, _, v = reports.functionals(cs)
    applicable = abs(gamma - math.pi) <= 1e-9
    g_plus, g_minus = reports.gram_pair(cs)
    det_plus, det_minus = det3(g_plus), det3(g_minus)
    return UncertaintyReport(
        u=u, v=v, u_prime=u_prime if applicable else None, u_double_prime=None,
        det_plus=det_plus, det_minus=det_minus, bound=bound, applicable=applicable,
        slack_u=bound - u, slack_u_prime=(1.0 - u_prime) if applicable else None,
        slack_u_double_prime=None, slack_v=bound / 2.0 - v,
    )


def assert_bitwise_equal(got, want, where):
    for f in fields(UncertaintyReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), (where, f.name, a, b)
        if isinstance(a, float):
            assert struct.pack("<d", a) == struct.pack("<d", b), (where, f.name, a, b)
        else:
            assert a is b, (where, f.name, a, b)


def number_state(n, n_max):
    c = np.zeros(n_max + 1, dtype=complex)
    c[n] = 1.0
    return fock.FockState(c)


def truncated_phase_state(theta, n_max):
    return fock.FockState(np.exp(1j * theta * np.arange(n_max + 1)) / math.sqrt(n_max + 1))


def test_fock_report_is_the_old_recipe_bit_for_bit():
    rng = np.random.default_rng(22)
    for n_max in (8, 32, 128):
        states = [fock.random_state(n_max, rng) for _ in range(3)]
        states += [number_state(n, n_max) for n in (0, n_max // 2, n_max)]
        states += [truncated_phase_state(theta, n_max) for theta in (0.0, float(rng.uniform(-4, 4)))]
        for st in states:
            for k in (1, 2, 4, 11):
                for phi in (math.pi / k, -math.pi / k, 3 * math.pi / k, 2 * math.pi / k,
                            float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-50.0, 50.0))):
                    assert_bitwise_equal(fock.report(st, k, phi), fock_recipe(st, k, phi), (n_max, k, phi))


def test_spin_report_is_the_old_recipe_bit_for_bit():
    rng = np.random.default_rng(22)
    for d in range(2, 17):
        system = spin.SpinSystem(d)
        states = [spin.random_state(system, rng), spin.phase_state(system, -system.j),
                  spin.phase_state(system, system.j)]
        basis = np.zeros(d, dtype=complex)
        basis[d // 2] = 1.0
        states.append(spin.QuditState(system, basis))  # a clock eigenstate
        for st in states:
            for k in range(1, d + 1):
                for ell in range(1, d + 1):
                    assert_bitwise_equal(spin.report(st, k, ell), spin_recipe(st, k, ell), (d, k, ell))


def test_bloch_surface_qubit_reports_are_the_old_recipe_bit_for_bit():
    rng = np.random.default_rng(22)
    directions = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)]
    for _ in range(40):
        v = rng.standard_normal(3)
        directions.append(tuple(v / np.linalg.norm(v)))
    for s in directions:
        st = qudit_from_bloch(s)
        for k in (1, 2, 3):
            for ell in (1, 2, 3):
                assert_bitwise_equal(spin.report(st, k, ell), spin_recipe(st, k, ell), (s, k, ell))


CS = CharSet(0.3 + 0.1j, -0.2 + 0.4j, 0.1 - 0.3j, -1.0, 0.25)


@pytest.mark.parametrize("angle", [math.pi, -math.pi, 3 * math.pi, math.pi + 5e-10, -7 * math.pi])
def test_report_at_the_stringent_point_fills_every_slack_of_its_system(angle):
    u, u_prime, u_double_prime, v = reports.functionals(CS)
    single = reports.report(CS, (0.5, 0.25), 1.0, angle, True)
    assert single.applicable and single.det_plus == 0.5 and single.det_minus == 0.25
    assert (single.u_prime, single.u_double_prime) == (u_prime, u_double_prime)
    assert (single.slack_u, single.slack_v) == (1.0 - u, 0.5 - v)
    assert (single.slack_u_prime, single.slack_u_double_prime) == (1.0 - u_prime, 1.0 - u_double_prime)
    qudit = reports.report(CS, (0.5, 0.25), 1.0, angle, False)
    assert qudit.applicable and qudit.u_prime == u_prime and qudit.slack_u_prime == 1.0 - u_prime
    assert qudit.u_double_prime is None and qudit.slack_u_double_prime is None


@pytest.mark.parametrize("angle", [0.0, math.pi + 2e-9, math.pi / 2, -math.pi / 3, 2 * math.pi])
def test_report_off_the_stringent_point_keeps_only_derived_slacks(angle):
    u, u_prime, u_double_prime, v = reports.functionals(CS)
    single = reports.report(CS, (0.5, 0.25), 1.0, angle, True)
    assert not single.applicable
    assert (single.u, single.v, single.u_prime, single.u_double_prime) == (u, v, u_prime, u_double_prime)
    assert single.slack_u is single.slack_v is single.slack_u_prime is single.slack_u_double_prime is None
    qudit = reports.report(CS, (0.5, 0.25), 1.5, angle, False)
    assert not qudit.applicable and qudit.bound == 1.5
    assert (qudit.slack_u, qudit.slack_v) == (1.5 - u, 0.75 - v)
    assert qudit.u_prime is qudit.u_double_prime is None
    assert qudit.slack_u_prime is qudit.slack_u_double_prime is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: reports.unit_amplitudes([complex(math.inf, 1e200)]),
        lambda: reports.unit_amplitudes([1e200, 1e-300]),
        lambda: fock.FockState([1e200]),
        lambda: fock.FockState([1.2e154 + 1.2e154j]),  # each square finite, their sum not
        lambda: fock.FockState([1e308 + 1e308j, -1e308]),
        lambda: spin.QuditState(spin.SpinSystem(2), [1e200, 0.0]),
        lambda: spin.QuditState(spin.SpinSystem(3), [1.2e154j, 1.2e154, 0.0]),
    ],
)
def test_overflowing_amplitudes_raise_without_a_warning(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="normalized|finite"):
            make()

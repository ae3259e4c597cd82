"""Family constructors, closed-form oracles, spec-string parsing."""

import dataclasses
import math
import os
import re
from typing import get_args

import mpmath
import numpy as np
import pytest
from scipy import optimize, special

from weyl_uncert import analysis, cli, families, fock
from weyl_uncert.families import (
    BesselEigenstate,
    ClosedFormUnavailable,
    FamilySpecError,
    GaussianNumber,
    Intermediate,
    NumberState,
    PhaseCoherent,
    build,
    closed_form_char,
    oracle_check,
    parse_spec,
    truncation_cap,
    with_param,
)
from weyl_uncert.numerics import MAX_BESSEL_ORDER
from weyl_uncert.reports import CharSet

BIG_CAP = 20000  # |xi| = 0.999 needs ~16k photon numbers for the tail target


# ---------------------------------------------------------------------------
# constructors


def test_number_state_build():
    st = build(NumberState(3))
    assert st.amplitudes[3] == 1.0
    assert np.sum(np.abs(st.amplitudes)) == 1.0
    assert st.tail_bound == 0.0


def test_phase_coherent_build():
    st = build(PhaseCoherent(0.49))
    assert st.tail_bound < 1e-14
    assert fock.mean_photon(st) == pytest.approx(0.3159626, abs=1e-3)


def test_phase_coherent_is_shift_eigenvector():
    for xi in (0.3, 0.8, 0.6 * np.exp(1.1j)):
        c = build(PhaseCoherent(xi)).amplitudes
        resid = np.linalg.norm(np.append(c[1:], 0) - xi * c)  # |E psi - xi psi|
        assert resid < 1e-5


def test_gaussian_build():
    st = build(GaussianNumber(400.0, 0.01, 0.5))
    assert st.tail_bound < 1e-14
    assert fock.mean_photon(st) == pytest.approx(400.0, abs=1e-6)


def test_bessel_build_eigen_residual():
    for lam in (0.3, 0.77, 1.5, 3.0):
        st = build(BesselEigenstate(lam))
        c = st.amplitudes
        ext = np.zeros(c.size + 1, dtype=complex)
        ext[: c.size] = np.arange(c.size) * c
        ext[1:] += 1j * lam * c
        assert np.linalg.norm(ext) <= 1e-8
        assert st.tail_bound < 1e-14


def test_bessel_mean_photon_formula():
    # nbar(lambda) = lambda I_1(2 lambda) / I_0(2 lambda)
    for lam in (0.5, 0.77, 2.0):
        st = build(BesselEigenstate(lam))
        ref = lam * special.i1(2 * lam) / special.i0(2 * lam)
        assert fock.mean_photon(st) == pytest.approx(ref, abs=1e-10)


def test_intermediate_build_normalized_with_overlap():
    spec = Intermediate(0.5, 3, 0.9)
    st = build(spec)
    assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-14)
    # the raw superposition norm includes the number/phase-state overlap
    t = 0.81
    overlap = math.sqrt(1 - t) * 0.9**3
    raw = math.sqrt(1 + 2 * math.sqrt(0.5) * math.sqrt(0.5) * overlap)
    assert abs(st.amplitudes[3] - (math.sqrt(0.5) + math.sqrt(0.5 * (1 - t)) * 0.9**3) / raw) < 1e-12


@pytest.mark.parametrize("alpha2, n, xi", [(0.5, 1, -0.9), (0.3, 2, -0.95)])
def test_intermediate_tail_bound_covers_the_exact_discarded_share(alpha2, n, xi):
    # The untruncated superposition has norm^2 N^2 = 1 + 2 sqrt(alpha2 (1 - alpha2))
    # sqrt(1 - t) Re xi^n, below 1 where Re xi^n < 0 (n = 1, xi = -0.9), and
    # the discarded share of the normalized state is (1 - alpha2) t^(n_max+1) / N^2.
    st = build(Intermediate(alpha2, n, xi))
    t = xi * xi
    norm2 = 1.0 + 2.0 * math.sqrt(alpha2 * (1.0 - alpha2)) * math.sqrt(1.0 - t) * xi**n
    exact = (1.0 - alpha2) * t ** (st.n_max + 1) / norm2
    assert st.tail_bound >= exact
    assert st.tail_bound < 1e-14


def test_invariant_violations():
    with pytest.raises(ValueError, match="xi"):
        PhaseCoherent(0.9999999)
    with pytest.raises(ValueError, match="a"):
        GaussianNumber(400.0, 0.5, 0.0)
    with pytest.raises(ValueError, match="nbar"):
        GaussianNumber(10.0, 0.01, 0.0)
    with pytest.raises(ValueError, match="alpha2"):
        Intermediate(1.5, 3, 0.9)
    with pytest.raises(ValueError, match="n must be"):
        Intermediate(1.0, 0, 0.9)
    with pytest.raises(ValueError, match="lambda"):
        BesselEigenstate(-1.0)


def test_intermediate_checks_xi_as_phase_coherent_does():
    with pytest.raises(ValueError) as phase:
        PhaseCoherent(1.5)
    with pytest.raises(ValueError) as inter:
        Intermediate(0.5, 3, 1.5)
    assert str(inter.value) == str(phase.value)
    # The checks keep their order: alpha2, then n, then xi.
    with pytest.raises(ValueError, match="alpha2"):
        Intermediate(1.5, 0, 1.5)
    with pytest.raises(ValueError, match="n must be an integer >= 1, got 0"):
        Intermediate(0.5, 0, 1.5)
    for text, needle in (("intermediate:alpha2=0.5,n=3,xi=1.5", "normalizability needs |xi|"),
                         ("intermediate:alpha2=0.5,n=0,xi=1.5", "n must be an integer >= 1")):
        with pytest.raises(FamilySpecError) as err:
            parse_spec(text)
        assert needle in str(err.value) and err.value.position == len("intermediate:")


@pytest.mark.parametrize(
    "cls, args, needle",
    [
        pytest.param(GaussianNumber, (math.nan, 0.01), "finite nbar", id="nbar-nan"),
        pytest.param(GaussianNumber, (math.inf, 0.01), "finite nbar", id="nbar-inf"),
        pytest.param(GaussianNumber, (100.0, 0.01, math.nan), "phase b", id="b-nan"),
        pytest.param(GaussianNumber, (100.0, 0.01, -math.inf), "phase b", id="b-inf"),
        pytest.param(GaussianNumber, (100.0, 0.01, 1e306), "must be finite, got b", id="b-phase"),
        pytest.param(GaussianNumber, (100.0, 0.01, -1e306), "must be finite, got b", id="b-phase-neg"),
        pytest.param(PhaseCoherent, (math.nan,), "xi", id="phase-coherent-xi-nan"),
        pytest.param(PhaseCoherent, (complex(0.1, math.inf),), "xi", id="phase-coherent-xi-inf"),
        pytest.param(Intermediate, (0.36, 3, math.nan), "xi", id="intermediate-xi-nan"),
        pytest.param(Intermediate, (math.nan, 3, 0.5), "alpha2", id="alpha-nan"),
        pytest.param(NumberState, (math.nan,), "n must be an integer", id="number-n-nan"),
        pytest.param(NumberState, (math.inf,), "n must be an integer", id="number-n-inf"),
        pytest.param(Intermediate, (0.36, math.inf, 0.5), "n must be an integer", id="intermediate-n-inf"),
    ],
)
def test_non_finite_or_overflowing_parameters_are_rejected(cls, args, needle):
    # Each would otherwise fail later in build, as a numpy warning, an
    # OverflowError or an unrelated message.
    with pytest.raises(ValueError, match=needle):
        cls(*args)


def test_gaussian_phase_check_spares_a_zero_b_at_any_nbar():
    # A zero b has no phase to overflow, so an nbar whose square overflows
    # still meets the truncation cap; a b just inside the bound builds.
    spec = GaussianNumber(1e308, 0.01)
    with pytest.raises(ValueError, match="truncation cap"):
        build(spec)
    st = build(GaussianNumber(100.0, 0.01, 1e300))
    assert np.all(np.isfinite(st.amplitudes))


def test_truncation_cap_enforced():
    with pytest.raises(ValueError, match="truncation cap"):
        build(PhaseCoherent(0.999))
    st = build(PhaseCoherent(0.999), max_nmax=BIG_CAP)
    assert st.n_max > 10000
    assert st.tail_bound < 1e-14


def test_truncation_cap_env_override(monkeypatch):
    monkeypatch.setenv(families.TRUNCATION_CAP_ENV, str(BIG_CAP))
    assert truncation_cap() == BIG_CAP
    st = build(PhaseCoherent(0.999), truncation_cap())
    assert st.n_max > 10000
    monkeypatch.delenv(families.TRUNCATION_CAP_ENV)
    assert truncation_cap() == families.DEFAULT_TRUNCATION_CAP
    for bad in ("abc", "1e5", "8"):
        monkeypatch.setenv(families.TRUNCATION_CAP_ENV, bad)
        message = f"{families.TRUNCATION_CAP_ENV} must be an integer >= 16, got '{bad}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            truncation_cap()


def test_library_ignores_the_truncation_cap_override(monkeypatch):
    # Only the CLI reads the variable; a library call takes its cap as max_nmax.
    monkeypatch.setenv(families.TRUNCATION_CAP_ENV, "16")
    state = build(PhaseCoherent(0.9))
    assert state.n_max == 153
    assert oracle_check(PhaseCoherent(0.9), state, 1, math.pi) <= 1e-12
    assert len(analysis.scan(PhaseCoherent(0.9), "xi", 0.8, 0.9, 2, 1, math.pi).rows) == 2
    with pytest.raises(ValueError, match="the cap is 16 "):
        build(PhaseCoherent(0.9), max_nmax=16)


# ---------------------------------------------------------------------------
# closed forms and oracle checks


def test_phase_coherent_closed_form_values():
    cf = closed_form_char(PhaseCoherent(0.49), 1, math.pi)
    t = 0.49**2
    assert cf.number_char == pytest.approx((1 - t) / (1 + t), abs=1e-15)
    assert abs(cf.number_char - 0.6128) < 1e-4
    assert cf.phase_char == pytest.approx(0.49, abs=1e-15)
    assert cf.cross_char == pytest.approx(-0.49 * (1 - t) / (1 + t), abs=1e-12)
    assert cf.pi_k == pytest.approx(1 - t, abs=1e-15)
    assert abs(cf.number_char) * abs(cf.phase_char) == pytest.approx(0.3003, abs=1e-4)


def test_oracle_check_phase_coherent():
    for spec, k, phi in ((PhaseCoherent(0.7), 2, math.pi / 2),
                         (PhaseCoherent(0.99 * np.exp(1j * math.pi / 3)), 3, math.pi)):
        assert oracle_check(spec, build(spec), k, phi) <= 1e-10


def test_oracle_check_complex_and_negative_xi():
    # A complex xi keeps the complex power; a negative one takes the real power.
    for xi in (0.3 + 0.4j, -0.9):
        spec = PhaseCoherent(xi)
        state = build(spec)
        for k, phi in ((1, math.pi), (2, math.pi / 2), (3, 1.0), (1, -2.5)):
            assert oracle_check(spec, state, k, phi) <= 1e-12


def _kept_table(xi: float, least: int) -> np.ndarray:
    # The kept sqrt(1 - t) xi^n table that a build at BIG_CAP with this least n_max reads.
    return families._xi_powers(complex(xi), families._geometric(complex(xi), BIG_CAP, least)[0])


@pytest.mark.parametrize("xi", [0.5, -0.5, 0.9, 0.995, 0.999])
def test_geometric_amplitudes_are_real_powers_within_one_ulp(xi):
    # A real xi is raised in real arithmetic: each unnormalized amplitude is
    # xi^n sqrt(1 - t), with the float sqrt(1 - t) the family uses, to a
    # relative 2^-52.  The complex power was off by up to 21 times that.
    c = _kept_table(xi, 0)
    assert c.dtype == np.float64
    scale = mpmath.mpf(math.sqrt(1.0 - xi * xi))
    with mpmath.workdps(50):
        for n in np.unique(np.linspace(0, c.size - 1, 257).astype(int)):
            exact = mpmath.mpf(xi) ** int(n) * scale
            assert abs(mpmath.mpf(float(c[n])) - exact) <= 2.0**-52 * abs(exact), (xi, n)


def test_geometric_table_is_kept_invisibly(monkeypatch):
    # All rows of an alpha2 scan at one xi read one kept, read-only xi^n
    # table, bitwise as if each row had built its own.
    spec = Intermediate(0.5, 3, 0.999)
    families._xi_powers.cache_clear()
    kept = analysis.scan(spec, "alpha2", 0.1, 0.9, 16, 1, math.pi, max_nmax=BIG_CAP)
    assert families._xi_powers.cache_info()[:2] == (15, 1)  # (hits, misses)
    build, xi_powers, built = families.build, families._xi_powers, []

    def fresh_table(*args):
        xi_powers.cache_clear()
        built.append(args)
        return xi_powers(*args)

    monkeypatch.setattr(families, "_xi_powers", fresh_table)
    fresh = analysis.scan(spec, "alpha2", 0.1, 0.9, 16, 1, math.pi, max_nmax=BIG_CAP)
    assert repr(kept.rows) == repr(fresh.rows) and len(built) == 16
    monkeypatch.undo()
    for family, least in ((spec, 4), (PhaseCoherent(0.999), 0)):
        amps = build(family, BIG_CAP).amplitudes
        hits = families._xi_powers.cache_info().hits
        geo = _kept_table(0.999, least)
        assert families._xi_powers.cache_info().hits == hits + 1  # the table the build read
        assert not geo.flags.writeable and not np.shares_memory(geo, amps)
        with pytest.raises(ValueError, match="read-only"):
            geo[0] = 0.0
    # The table is keyed on the n_max it resolves to: the near-1 scan's last
    # row (phase-coherent, least 0) and the alpha2 scan at its xi (least
    # n + 1 = 4) both resolve to 16111, so the alpha2 scan builds no table.
    families._xi_powers.cache_clear()
    analysis.scan(PhaseCoherent(0.99), "xi", 0.99, 0.999, 24, 1, math.pi, max_nmax=BIG_CAP)
    last = _kept_table(0.999, 0)
    misses = families._xi_powers.cache_info().misses
    analysis.scan(spec, "alpha2", 0.1, 0.9, 16, 1, math.pi, max_nmax=BIG_CAP)
    assert families._xi_powers.cache_info().misses == misses
    geo = _kept_table(0.999, 4)
    assert geo.size == 16112 and np.shares_memory(geo, last)
    longer = _kept_table(0.999, 16200)
    assert longer.size == 16201 and np.array_equal(longer[:16112], geo)


def test_oracle_check_bessel():
    for spec, k, phi in ((BesselEigenstate(0.77), 1, math.pi), (BesselEigenstate(2.0), 2, math.pi / 2)):
        assert oracle_check(spec, build(spec), k, phi) <= 1e-8
    # The closed forms are complex: each character, phase included.
    for lam in (0.05, 1.0, 7.5, 30.0):
        spec = BesselEigenstate(lam)
        state = build(spec)
        for k in range(1, 6):
            for phi in (-2.5, 0.0, 1.0, math.pi / k):
                assert oracle_check(spec, state, k, phi) <= 1e-14


@pytest.mark.parametrize("cap", [30, 60])
def test_bessel_cap_error_names_the_family_need(cap):
    # lambda = 40 needs n_max = 91 at any cap below it, not the first n past the cap.
    assert BesselEigenstate(40.0)._truncation(91)[0] == 91
    with pytest.raises(ValueError, match=f"needs n_max = 91 but the cap is {cap} "):
        build(BesselEigenstate(40.0), cap)


def test_bessel_closed_form_stops_at_the_series_order_cap():
    spec = BesselEigenstate(1.0)
    state = build(spec)
    assert oracle_check(spec, state, MAX_BESSEL_ORDER, 1.0) <= 1e-14
    needle = rf"k <= {MAX_BESSEL_ORDER}, got k = {MAX_BESSEL_ORDER + 1}"
    with pytest.raises(ClosedFormUnavailable, match=needle):
        closed_form_char(spec, MAX_BESSEL_ORDER + 1, 1.0)
    with pytest.raises(ClosedFormUnavailable, match=needle):
        oracle_check(spec, state, MAX_BESSEL_ORDER + 1, 1.0)


def test_bessel_closed_form_reduces_to_ordinary_bessel_at_pi():
    # I_0(2i lambda) = J_0(2 lambda) and I_1(-2i lambda) = -i J_1(2 lambda).
    for lam in (0.4, 0.77, 1.3):
        cf = closed_form_char(BesselEigenstate(lam), 1, math.pi)
        assert isinstance(cf, CharSet)
        i0 = special.i0(2 * lam)
        assert abs(cf.number_char - special.j0(2 * lam) / i0) <= 1e-12
        assert abs(cf.phase_char - 1j * special.i1(2 * lam) / i0) <= 1e-12
        assert abs(cf.cross_char + 1j * special.j1(2 * lam) / i0) <= 1e-12


def test_oracle_check_gaussian_within_window():
    for a in (0.005, 0.02, 0.05):
        spec = GaussianNumber(400.0, a, 0.0)
        assert oracle_check(spec, build(spec), 1, 4.0 * math.sqrt(a)) <= 1e-10
    spec = GaussianNumber(100.0, 0.005, 0.0)
    assert oracle_check(spec, build(spec), 1, math.pi) <= 1e-10


def test_oracle_check_gaussian_with_correlations():
    spec = GaussianNumber(400.0, 0.02, 0.3)
    assert oracle_check(spec, build(spec), 1, 4.0 * math.sqrt(0.02)) <= 1e-10


@pytest.mark.parametrize("b", [0.0, 0.3])
@pytest.mark.parametrize("k", [1, 4, 16])
def test_gaussian_closed_form_matches_amplitude_sums_with_phases(b, k):
    # Complex entries, phases included; k = 16 at a >= 0.02 would reach the
    # cut at n_max, which the leading-order forms do not see.
    for a in (0.005, 0.01):
        spec = GaussianNumber(400.0, a, b)
        st = build(spec)
        for phi in (4.0 * math.sqrt(a), math.pi / k):
            cf = closed_form_char(spec, k, phi)
            num = fock.char_set(st, k, phi)
            assert isinstance(cf, CharSet)
            assert cf.phase_char.imag == 0.0 and cf.phase_char.real >= 0.0
            for name in ("number_char", "phase_char", "cross_char", "pi_k"):
                assert abs(getattr(num, name) - getattr(cf, name)) <= 1e-12, (a, phi, name)


def test_oracle_check_intermediate():
    spec = Intermediate(0.5, 3, 0.999)
    assert oracle_check(spec, build(spec, max_nmax=BIG_CAP), 1, math.pi) <= 5e-2


def test_closed_form_unavailable():
    with pytest.raises(ClosedFormUnavailable, match="xi"):
        closed_form_char(Intermediate(1.0, 3, 0.9), 1, math.pi)
    with pytest.raises(ClosedFormUnavailable, match="sqrt"):
        closed_form_char(GaussianNumber(400.0, 0.01, 0.0), 25, math.pi)


def test_number_state_closed_form_exact():
    for spec, k, phi in ((NumberState(3), 2, math.pi), (NumberState(0), 1, 0.7)):
        assert oracle_check(spec, build(spec), k, phi) <= 1e-12


def test_number_state_closed_form_stops_where_n_rounds():
    # Beyond 2^53, phi * n would be formed from a rounded n; at 10^400 it overflowed a float.
    assert closed_form_char(NumberState(2**53), 1, 1.0).number_char == np.exp(1j * float(2**53))
    for n, digits in ((2**53 + 1, 16), (10**400, 401)):
        with pytest.raises(ClosedFormUnavailable, match=re.escape(f"n <= 2**53, got a {digits}-digit n")):
            closed_form_char(NumberState(n), 1, 1.0)


def test_intermediate_closed_form_stops_where_n_rounds():
    # Its number char is the number state's, so it takes that form's guard.
    for n, digits in ((2**60, 19), (10**400, 401)):
        with pytest.raises(ClosedFormUnavailable, match=re.escape(f"n <= 2**53, got a {digits}-digit n")):
            closed_form_char(Intermediate(0.5, n, 0.999), 1, 1.0)


# The number, phase and cross chars as float.hex of their real and imaginary parts, and pi_k,
# recorded before each family's form returned its four values to closed_form_char.
CLOSED_FORM_BITS = [
    (NumberState(3), 1, math.pi,
     ("-0x1.0000000000000p+0 0x1.a79394c9e8a0ap-52", "0x0.0p+0 0x0.0p+0",
      "0x0.0p+0 0x0.0p+0", "0x0.0p+0")),
    (NumberState(3), 2, 0.7,
     ("-0x1.027b304989ec6p-1 0x1.b9f693feb72fdp-1", "0x0.0p+0 0x0.0p+0",
      "0x0.0p+0 0x0.0p+0", "0x0.0p+0")),
    (PhaseCoherent(0.6 + 0.3j), 1, math.pi,
     ("0x1.8469ee58469efp-2 0x1.09ee765fb6e1bp-56", "0x1.3333333333333p-1 -0x1.3333333333333p-2",
      "-0x1.d218b79d218b8p-3 0x1.d218b79d218b8p-4", "0x1.199999999999ap-1")),
    (PhaseCoherent(0.6 + 0.3j), 2, 0.7,
     ("0x1.6732e43689448p-1 0x1.3d8f2788fe567p-2", "0x1.147ae147ae148p-2 -0x1.70a3d70a3d70ap-2",
      "-0x1.45d0fa04e9f32p-2 -0x1.120916c01decap-3", "0x1.9851eb851eb85p-1")),
    (GaussianNumber(400.0, 0.01, 0.3), 1, math.pi,
     ("0x1.029c1f6327cd9p-178 0x1.1dfbec320ba12p-225", "0x1.6a343c2d8fb17p-7 0x0.0p+0",
      "0x1.5a7dcc8913848p-161 -0x1.6a36855b01ae8p-117", "0x0.0p+0")),
    (GaussianNumber(400.0, 0.01, 0.3), 2, 0.7,
     ("-0x1.0847b49656bc0p-9 -0x1.bcc4e14aa03edp-11", "0x1.0077d2db8165bp-26 0x0.0p+0",
      "-0x1.4128aa67c34f9p-6 0x1.3a244e2078edbp-5", "0x0.0p+0")),
    (BesselEigenstate(0.77), 1, math.pi,
     ("0x1.2919f8443521ap-2 0x1.2266bd2c669c4p-55", "0x0.0p+0 0x1.36342d6122a83p-1",
      "0x1.f8b10ef3db653p-56 -0x1.55e80a986ac04p-2", "0x1.2f88e7ec8cc35p-1")),
    (BesselEigenstate(0.77), 2, 0.7,
     ("0x1.bcc3a02161561p-1 0x1.1f8675167f63dp-2", "-0x1.b48d358269e35p-3 0x0.0p+0",
      "-0x1.4197dcaf6bea0p-7 0x1.a1c9697f18cc8p-3", "0x1.e380250a979eap-1")),
    (Intermediate(0.3, 3, 0.7 + 0.7071j), 1, math.pi,
     ("-0x1.3333333333333p-2 0x1.fc4ab28be3f3fp-54", "0x1.f5c28f5c28f5bp-2 -0x1.fad96a6a01258p-2",
      "0x0.0p+0 0x0.0p+0", "0x0.0p+0")),
    (Intermediate(0.3, 3, 0.7 + 0.7071j), 2, 0.7,
     ("-0x1.362d6d250be87p-3 0x1.092d8bff3ab64p-2", "-0x1.ca4fe2f4dfef3p-8 -0x1.62cb641700cd7p-1",
      "0x0.0p+0 0x0.0p+0", "0x0.0p+0")),
]


@pytest.mark.parametrize("spec, k, phi, bits", CLOSED_FORM_BITS, ids=lambda v: getattr(v, "TAG", None))
def test_closed_form_char_keeps_its_bits_and_types(spec, k, phi, bits):
    cf = closed_form_char(spec, k, phi)
    chars = (cf.number_char, cf.phase_char, cf.cross_char)
    assert [type(x) for x in chars] == [complex] * 3 and type(cf.pi_k) is float
    assert [f"{x.real.hex()} {x.imag.hex()}" for x in chars] + [cf.pi_k.hex()] == list(bits)
    assert cf.weyl == np.exp(-1j * k * phi)


# ---------------------------------------------------------------------------
# family-level behavior


def test_phase_coherent_limit_toward_unit_modulus():
    # Larger |xi| pushes the sum functional back toward its bound.
    u = {}
    for xi in (0.8, 0.999):
        st = build(PhaseCoherent(xi), max_nmax=BIG_CAP)
        rep = fock.report(st, 1, math.pi)
        u[xi] = rep.u
        cs = fock.char_set(st, 1, math.pi)
        assert abs(abs(cs.phase_char) - xi) < 1e-6
    assert u[0.999] > u[0.8]


def test_gaussian_revival_of_extended_sum():
    # At fixed width, the cross term revives the extended sum near b = pi/2.
    def u_prime(b):
        st = build(GaussianNumber(400.0, 0.025, b))
        return fock.report(st, 1, math.pi).u_prime

    assert u_prime(math.pi / 2) > u_prime(0.8) + 0.5
    assert u_prime(math.pi / 2) == pytest.approx(u_prime(0.0), abs=1e-2)


def test_gaussian_product_stationary_in_k():
    # The product's stationary point over continuous k satisfies
    # a k^2 = (pi/2) sqrt(a^2 / (a^2 + b^2)).
    for a, b in ((0.02, 0.5), (0.02, 1.0), (0.05, 0.0)):
        res = optimize.minimize_scalar(
            # |number_char| * |phase_char| at phi = pi/k, k continuous
            lambda k: -math.exp(-math.pi**2 / (8 * a * k * k) - (a * a + b * b) * k * k / (2 * a)),
            bounds=(0.5, 12.0),
            method="bounded",
            options={"xatol": 1e-10},
        )
        target = (math.pi / 2.0) * math.sqrt(a * a / (a * a + b * b))
        assert a * res.x**2 == pytest.approx(target, rel=1e-5)


def test_intermediate_weight_sum_behavior():
    values = {}
    for a2 in (0.0, 0.5, 1.0):
        spec = Intermediate(a2, 3, 0.999)
        st = build(spec, max_nmax=BIG_CAP)
        rep = fock.report(st, 1, math.pi)
        assert rep.u_double_prime <= 1.0 + 1e-9
        assert abs(rep.u_double_prime - (a2**2 + (1 - a2) ** 2)) <= 5e-2
        values[a2] = rep
    assert values[0.0].u > values[0.5].u
    assert values[1.0].u > values[0.5].u
    assert values[0.5].v > values[0.0].v
    assert values[0.5].v > values[1.0].v


# ---------------------------------------------------------------------------
# spec grammar


def test_parse_spec_reads_canonical_texts():
    cases = [
        ("number:n=3", NumberState(3)),
        ("phase-coherent:xi=0.49", PhaseCoherent(0.49)),
        ("gaussian:nbar=100,a=0.005,b=0", GaussianNumber(100.0, 0.005, 0.0)),
        ("bessel:lambda=0.77", BesselEigenstate(0.77)),
        ("phase-coherent:xi=0.3+0.4j", PhaseCoherent(0.3 + 0.4j)),
        ("phase-coherent:xi=(0.3+0.4j)", PhaseCoherent(0.3 + 0.4j)),
        ("phase-coherent:xi=-0.5j", PhaseCoherent(-0.5j)),
        ("intermediate:alpha2=0.36,n=3,xi=0.5-0.2j", Intermediate(0.36, 3, 0.5 - 0.2j)),
    ]
    for text, spec in cases:
        assert parse_spec(text) == spec
    # Integer counts are read exactly, also beyond float precision.
    assert parse_spec("number:n=1152921504606846977") == NumberState(2**60 + 1)
    assert parse_spec("number:n=9007199254740993").n == 2**53 + 1
    assert parse_spec("intermediate:alpha2=0.5,n=9007199254740993,xi=0.5").n == 2**53 + 1


def test_parse_spec_keeps_a_huge_count_exact_until_the_cap():
    digits = "1" + "0" * 399
    spec = parse_spec(f"number:n={digits}")
    assert spec == NumberState(10**399)
    with pytest.raises(ValueError, match=r"n_max = 1e\+399 but the cap is 4096"):
        build(spec, max_nmax=4096)
    # Fields read as floats reject a literal no float can hold.
    for text in (f"phase-coherent:xi={digits}", f"gaussian:nbar={digits},a=0.01",
                 f"intermediate:alpha2={digits},n=3,xi=0.5"):
        with pytest.raises(FamilySpecError, match="too large"):
            parse_spec(text)


def test_parse_spec_intermediate():
    spec = parse_spec("intermediate:alpha2=0.5,n=3,xi=0.999")
    assert isinstance(spec, Intermediate)
    assert spec == Intermediate(0.5, 3, 0.999)
    # The spec keeps the weight it was given, not one recomputed from the renormalized amplitudes.
    spec = parse_spec("intermediate:alpha2=0.3,n=3,xi=0.5")
    assert spec.alpha2 == 0.3 and abs(build(spec).amplitudes[3]) ** 2 != 0.3
    assert parse_spec("intermediate:alpha2=0.7,n=2,xi=(0.5-0.2j)") == Intermediate(0.7, 2, 0.5 - 0.2j)


def test_parse_spec_gaussian_default_b():
    assert parse_spec("gaussian:nbar=100,a=0.005") == GaussianNumber(100.0, 0.005, 0.0)


def test_parse_spec_errors_carry_positions():
    with pytest.raises(FamilySpecError, match="unknown family") as err:
        parse_spec("frobnicate:x=1")
    assert err.value.position == 0
    with pytest.raises(FamilySpecError, match="unknown key") as err:
        parse_spec("phase-coherent:zeta=0.5")
    assert err.value.position == len("phase-coherent:")
    with pytest.raises(FamilySpecError, match="invalid number"):
        parse_spec("bessel:lambda=abc")
    with pytest.raises(FamilySpecError, match="missing required"):
        parse_spec("gaussian:a=0.01")
    with pytest.raises(FamilySpecError, match="duplicate"):
        parse_spec("number:n=1,n=2")
    with pytest.raises(FamilySpecError, match="key=value"):
        parse_spec("number:nonsense")
    with pytest.raises(FamilySpecError, match="xi"):
        parse_spec("phase-coherent:xi=1.5")  # invariant violation surfaces as parse error
    # Only xi reads a complex literal, and rejects a non-finite part.
    with pytest.raises(FamilySpecError, match=re.escape("invalid number '1+2j'")):
        parse_spec("gaussian:nbar=1+2j,a=0.01")
    for text in ("phase-coherent:xi=nan+0.1j", "phase-coherent:xi=(0.1+infj)"):
        with pytest.raises(FamilySpecError, match="non-finite number") as err:
            parse_spec(text)
        assert err.value.position == len("phase-coherent:xi=")


def test_with_param():
    assert with_param(PhaseCoherent(0.1), "xi", 0.7) == PhaseCoherent(0.7)
    assert with_param(GaussianNumber(400.0, 0.01, 0.0), "b", 1.0).b == 1.0
    assert with_param(BesselEigenstate(1.0), "lambda", 0.77) == BesselEigenstate(0.77)
    assert with_param(NumberState(0), "n", 4.0) == NumberState(4)
    assert with_param(Intermediate(1.0, 3, 0.999), "alpha2", 0.25) == Intermediate(0.25, 3, 0.999)
    # Sweeping one field keeps the others exactly.
    inter = Intermediate(0.36, 2, 0.5 + 0.1j)
    assert with_param(inter, "xi", 0.7) == Intermediate(0.36, 2, 0.7)
    assert with_param(inter, "n", 4.0) == Intermediate(0.36, 4, 0.5 + 0.1j)
    with pytest.raises(ValueError, match="sweepable"):
        with_param(PhaseCoherent(0.1), "nbar", 1.0)
    # A parameter is named by its spec key only; the error lists the keys.
    with pytest.raises(ValueError, match=re.escape("no sweepable parameter 'lam' (keys: lambda)")):
        with_param(BesselEigenstate(1.0), "lam", 0.77)
    with pytest.raises(ValueError, match=re.escape("'a2' (keys: alpha2, n, xi)")):
        with_param(Intermediate(0.36, 2, 0.5), "a2", 0.25)


@pytest.mark.parametrize("spec", [NumberState(3), Intermediate(0.36, 3, 0.5)])
def test_non_integer_n_is_rejected_not_rounded(spec):
    # A photon count of 4.4 names no state of either family.
    with pytest.raises(ValueError, match="n must be an integer"):
        with_param(spec, "n", 4.4)
    text = {NumberState: "number:n=2.5", Intermediate: "intermediate:alpha2=0.36,n=2.5,xi=0.5"}[type(spec)]
    with pytest.raises(FamilySpecError, match="n must be an integer"):
        parse_spec(text)


# ---------------------------------------------------------------------------
# every registered family carries every piece

# One example spec per tag, in the order of families.SPEC_KEYS.
FAMILY_EXAMPLES = {
    "number": "number:n=3",
    "phase-coherent": "phase-coherent:xi=0.3+0.4j",
    "gaussian": "gaussian:nbar=400,a=0.01,b=0.2",
    "bessel": "bessel:lambda=0.77",
    "intermediate": "intermediate:alpha2=0.36,n=3,xi=0.995",
}


def test_family_examples_cover_every_registered_tag():
    assert tuple(FAMILY_EXAMPLES) == tuple(families.SPEC_KEYS)


@pytest.mark.parametrize("cls", get_args(families.FamilySpec), ids=lambda cls: cls.TAG)
def test_every_spec_key_names_a_field_in_order(cls):
    assert tuple(cls.KEYS.values()) == tuple(f.name for f in dataclasses.fields(cls))


@pytest.mark.parametrize("tag", FAMILY_EXAMPLES)
def test_registered_family_is_complete(tag, capsys):
    spec = parse_spec(FAMILY_EXAMPLES[tag])
    assert spec.TAG == tag
    st = build(spec)
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
    try:
        assert isinstance(closed_form_char(spec, 1, math.pi), CharSet)
    except ClosedFormUnavailable:
        pass
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert f"\n  {tag}: {', '.join(families.SPEC_KEYS[tag])}\n" in capsys.readouterr().out


@pytest.mark.parametrize("func", [build, lambda spec: closed_form_char(spec, 1, 0.5)],
                         ids=["build", "closed_form_char"])
def test_non_family_objects_raise_type_error(func):
    with pytest.raises(TypeError, match="unknown family spec"):
        func(object())

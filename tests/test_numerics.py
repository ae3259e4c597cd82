"""Kernel tests: the Bessel family's series against an extended-precision oracle; the
3x3 Hermitian record, its tables and its determinant against numpy and
direct Gram constructions; and the CharSet check that guards every entry."""

import math
import types

import mpmath
import numpy as np
import pytest

from weyl_uncert import Hermitian3, bessel_i, det3, families, fock, numerics, reports, spin


def oracle_bessel(order, z, terms=80):
    """Direct series in 40-digit arithmetic; the reference for bessel_i."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        total = mpmath.mpc(0)
        for m in range(terms):
            total += (z / 2) ** (2 * m + order) / (mpmath.factorial(m) * mpmath.factorial(m + order))
        return complex(total)


# Frozen oracle values (40-digit series, 80 terms).
I0_AT_2 = 2.279585302336067267437204
I0_AT_2I = 0.2238907791412356680518275  # equals J_0(2)
I1_AT_2 = 1.590636854637329063382254


def test_bessel_trivial_at_zero():
    assert bessel_i(0, 0.0) == 1.0 + 0.0j
    assert bessel_i(3, 0.0) == 0.0 + 0.0j


def test_bessel_frozen_values():
    assert bessel_i(0, 2.0) == pytest.approx(I0_AT_2, rel=1e-14)
    val = bessel_i(0, 2.0j)
    assert val.real == pytest.approx(I0_AT_2I, rel=1e-13)
    assert abs(val.imag) < 1e-15
    assert bessel_i(1, 2.0) == pytest.approx(I1_AT_2, rel=1e-14)


@pytest.mark.parametrize("order", [0, 1, 2, 5, 11])
def test_bessel_matches_oracle_complex(order):
    rng = np.random.default_rng(2024)
    for _ in range(12):
        z = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
        ref = oracle_bessel(order, z, terms=120)
        got = bessel_i(order, z)
        assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref))


def test_bessel_conjugate_symmetry():
    rng = np.random.default_rng(5)
    for order in (0, 1, 4):
        for _ in range(20):
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            a = bessel_i(order, np.conj(z))
            b = np.conj(bessel_i(order, z))
            assert abs(a - b) <= 1e-14 * (1.0 + abs(b))


def test_bessel_real_positive_on_positive_axis():
    for x in np.linspace(0.1, 30.0, 40):
        val = bessel_i(2, x)
        assert val.imag == 0.0
        assert val.real > 0.0


def test_bessel_recurrence():
    # I_{nu-1}(z) - I_{nu+1}(z) = (2 nu / z) I_nu(z)
    for nu in range(1, 11):
        for x in np.linspace(0.1, 10.0, 23):
            lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x)
            rhs = (2.0 * nu / x) * bessel_i(nu, x)
            assert abs(lhs - rhs) < 1e-10 * abs(bessel_i(nu - 1, x))


def test_bessel_domain_errors():
    with pytest.raises(ValueError, match="order"):
        bessel_i(-1, 1.0)
    with pytest.raises(ValueError, match="order"):
        bessel_i(65, 1.0)
    for order in (1.5, -0.5, math.nan):  # a non-integer order is not truncated to an integer
        with pytest.raises(ValueError, match="order"):
            bessel_i(order, 1.0)
    with pytest.raises(ValueError, match=r"\|z\|"):
        bessel_i(0, 101.0)
    for z in (math.nan, complex(math.nan, 0.0), complex(0.0, math.nan)):  # not 500 terms of nan
        with pytest.raises(ValueError, match=r"\|z\| = nan"):
            bessel_i(0, z)


def test_numerics_holds_only_the_gram_kernel():
    # The Bessel series and its domain live with their one caller, the Bessel family.
    assert not [name for name in vars(numerics) if "bessel" in name.lower()]
    assert bessel_i is families.bessel_i


def from_matrix(m):
    """Hermitian3 from the real diagonal and upper entries of a Hermitian matrix."""
    return Hermitian3.from_upper(np.diag(m).real, (m[0, 1], m[0, 2], m[1, 2]))


def random_hermitian(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return from_matrix((a + a.conj().T) / 2)


def gram_from_vectors(vectors):
    m = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    return from_matrix(m)


def test_det3_identity():
    assert det3(from_matrix(np.eye(3))) == 1.0


def test_det3_unit_diagonal_zero_offdiag():
    g = Hermitian3.from_upper((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    assert det3(g) == 1.0


def test_det3_unit_diagonal_one_offdiag():
    # 1 - |phi|^2 with phi = 1 and the other two entries zero.
    g = Hermitian3.from_upper((1.0, 1.0, 1.0), (1.0, 0.0, 0.0))
    assert det3(g) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("upper", [(1.0, 1.0, 1.0), (-1.0, -1.0, 1.0)])
def test_det3_collinear_gram_is_singular(upper):
    # Gram of three collinear unit vectors, in the second case with the last
    # two sign-flipped: spectrum {3, 0, 0}.
    assert abs(det3(Hermitian3.from_upper((1.0, 1.0, 1.0), upper))) <= 1e-12


def test_det3_matches_numpy_on_random_hermitians():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_hermitian(rng)
        assert det3(g) == pytest.approx(float(np.linalg.det(full_matrix(g.diag, g.upper)).real), abs=1e-10)


def test_det3_equals_product_of_eigvals():
    rng = np.random.default_rng(13)
    for _ in range(100):
        g = random_hermitian(rng)
        eigs = np.linalg.eigvalsh(full_matrix(g.diag, g.upper))
        assert det3(g) == pytest.approx(float(np.prod(eigs)), rel=1e-9, abs=1e-9)


def test_vector_grams_are_psd():
    rng = np.random.default_rng(14)
    for _ in range(200):
        dim = int(rng.integers(3, 12))
        vecs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(3)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        g = gram_from_vectors(vecs)
        assert np.linalg.eigvalsh(full_matrix(g.diag, g.upper))[0] >= -1e-10
        assert det3(g) >= -1e-10


def test_hermitian3_symmetry_exact():
    # The Gram matrices the package builds keep a Python-float diagonal, so
    # the matrix their entries stand for is exactly Hermitian.
    rng = np.random.default_rng(15)
    fock_state = fock.random_state(12, rng)
    qudit = spin.random_state(spin.SpinSystem(5), rng)
    sets = [fock.char_set(fock_state, k, phi) for k in (1, 3, 14) for phi in (math.pi, 0.7)]
    sets += [spin.char_set(qudit, k, ell) for k in (1, 2, 4) for ell in (1, 3)]
    for cs in sets:
        for g in reports.gram_pair(cs):
            assert all(type(x) is float for x in g.diag)
            m = full_matrix(g.diag, g.upper)
            assert np.array_equal(m, m.conj().T)


def test_reports_carry_python_float_determinants():
    # No numpy scalar type reaches messages or JSON through a determinant.
    rng = np.random.default_rng(17)
    fock_state = fock.random_state(9, rng)
    qudit = spin.random_state(spin.SpinSystem(4), rng)
    reps = [fock.report(fock_state, k, math.pi / k) for k in (1, 2, 11)]
    reps += [spin.report(qudit, k, ell) for k in (1, 2) for ell in (1, 3)]
    for rep in reps:
        assert type(rep.det_plus) is float and type(rep.det_minus) is float


CHAR_FIELDS = ("number_char", "phase_char", "cross_char", "weyl")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_char_set_rejects_non_finite_fields(bad):
    # CharSet is the one check before the Gram step: every value gram_pair
    # puts into a matrix is a field, or a product or difference of fields.
    ok = {"number_char": 0.5, "phase_char": 0.25j, "cross_char": 0.1 - 0.2j, "weyl": -1j, "pi_k": 0.25}
    reports.CharSet(**ok)
    cases = [{**ok, name: z} for name in CHAR_FIELDS for z in (complex(bad, 0.3), complex(0.3, bad))]
    cases.append({**ok, "pi_k": bad})
    for fields in cases:
        with pytest.raises(ValueError):
            reports.CharSet(**fields)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_char_set_rejects_a_non_finite_table_entry(bad):
    d = 4
    table = spin.char_table(spin.random_state(spin.SpinSystem(d), np.random.default_rng(19)).amplitudes)
    full = {name: np.array(value) for name, value in vars(table).items()}
    reports.CharSet(**full)
    for name in CHAR_FIELDS:
        for z in (complex(bad, 0.1), complex(0.1, bad)):
            fields = {**full, name: full[name].copy()}
            fields[name][1, 2] = z
            with pytest.raises(ValueError):
                reports.CharSet(**fields)
    fields = {**full, "pi_k": full["pi_k"].copy()}
    fields["pi_k"][2, 1] = bad
    with pytest.raises(ValueError):
        reports.CharSet(**fields)


def random_upper(rng):
    diag = tuple(float(x) for x in rng.standard_normal(3))
    upper = tuple(complex(x, y) for x, y in rng.standard_normal((3, 2)))
    return diag, upper


def full_matrix(diag, upper):
    (d0, d1, d2), (a01, a02, a12) = diag, upper
    return np.array(
        [[d0, a01, a02], [a01.conjugate(), d1, a12], [a02.conjugate(), a12.conjugate(), d2]],
        dtype=complex,
    )


def test_from_upper_keeps_the_entries():
    rng = np.random.default_rng(16)
    for _ in range(200):
        diag, upper = random_upper(rng)
        g = Hermitian3.from_upper(diag, upper)
        assert g.diag == diag and g.upper == upper
        assert all(type(x) is float for x in g.diag) and all(type(x) is complex for x in g.upper)
    a, b = np.array([[0.5, 0.25j]]), np.array([[0.1], [-0.2j]])
    g = Hermitian3.from_upper((1.0, 1.0, 0.5), (a, b, 0.3))
    assert g.diag == (1.0, 1.0, 0.5) and g.upper[0] is a and g.upper[1] is b


def random_table(rng, shape):
    diag = tuple(rng.standard_normal(shape) for _ in range(3))
    upper = tuple(rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(3))
    return diag, upper


def test_det3_of_a_table_equals_the_scalar_det3_exactly():
    rng = np.random.default_rng(18)
    diag, upper = random_table(rng, (4, 5))
    # Entries that broadcast: a scalar, a row and a column among them.
    diag = (1.0, diag[1][:1, :], diag[2])
    upper = (upper[0][:, :1], upper[1], complex(upper[2][0, 0]))
    dets = det3(Hermitian3.from_upper(diag, upper))
    assert dets.shape == (4, 5)
    d_full = np.broadcast_arrays(*diag, *upper)
    for i, j in np.ndindex(4, 5):
        g = Hermitian3.from_upper([x[i, j] for x in d_full[:3]], [x[i, j] for x in d_full[3:]])
        assert dets[i, j] == det3(g)


def test_gram_pair_cross_entry_is_pythons_complex_product():
    # weyl * conj(cross) of each scalar set, signed zeros included, and the
    # same numbers entry by entry from a table of sets.
    parts = (0.0, -0.0, 1.0, -1.0, 0.6, -0.8)
    values = [complex(x, y) for x in parts for y in parts if abs(complex(x, y)) <= 1.0]
    weyl = np.array(values)[:, None]
    cross = np.array(values)[None, :]
    table = reports.gram_pair(reports.CharSet(0.5, 0.5, cross, weyl))[1].upper[2]
    for i, w in enumerate(values):
        for j, c in enumerate(values):
            got = reports.gram_pair(reports.CharSet(0.5, 0.5, c, w))[1].upper[2]
            want = w * c.conjugate()
            for z in (got, complex(table[i, j])):
                assert (z.real, z.imag) == (want.real, want.imag)
                assert math.copysign(1.0, z.real) == math.copysign(1.0, want.real)
                assert math.copysign(1.0, z.imag) == math.copysign(1.0, want.imag)


STATE_MAKERS = {
    "fock": lambda c: fock.FockState(c),
    "qudit": lambda c: spin.QuditState(spin.SpinSystem(len(c)), c),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("make", STATE_MAKERS.values(), ids=STATE_MAKERS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_unit_amplitudes_names_a_non_finite_entry(make, bad):
    # The entry test runs only behind a non-finite norm, which any NaN or
    # +-inf part gives, whatever the other entries hold.
    for c in ([complex(bad, 0.0), 0.0], [complex(0.0, bad), 0.0], [0.6, complex(0.8, bad)],
              [complex(bad, 1e200), 1e200]):
        with pytest.raises(ValueError, match="finite"):
            make(np.array(c))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("make", STATE_MAKERS.values(), ids=STATE_MAKERS)
def test_unit_amplitudes_tells_overflow_and_zero_from_non_finite(make):
    # Finite entries whose squares overflow give an infinite norm, and the
    # zero vector a zero one: both are unnormalized, not non-finite.
    for c in ([1e200, 0.0], [0.0, 1e200j], [-1e200, 1e200j], [0.0, 0.0]):
        with pytest.raises(ValueError, match="not normalized"):
            make(np.array(c, dtype=complex))


def test_unit_amplitudes_norm_is_numpys_bit_for_bit(monkeypatch):
    # unit_amplitudes sums the norm itself; it must be np.linalg.norm's value
    # exactly, so that no state moves across the 1e-12 tolerance.
    norms = []

    def sqrt(x):
        norms.append(math.sqrt(x))
        return norms[-1]

    monkeypatch.setattr(reports, "math", types.SimpleNamespace(sqrt=sqrt, isfinite=math.isfinite))
    rng = np.random.default_rng(1818)
    for size in (1, 2, 3, 7, 64, 257, 1000, 4097, 16111, 16112, 20000):
        for scale in (1.0, 1e-3, 1e3):
            c = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
            for amps in (c, c / np.linalg.norm(c)):
                try:
                    reports.unit_amplitudes(amps)
                except ValueError as err:
                    assert "not normalized" in str(err) and amps is c
                assert norms.pop() == float(np.linalg.norm(amps))

"""Kernel tests: Bessel series against an extended-precision oracle, and
the 3x3 Hermitian type and its determinant against numpy and direct Gram
constructions."""

import math

import mpmath
import numpy as np
import pytest

from weyl_uncert import Hermitian3, bessel_i, det3


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
    with pytest.raises(ValueError, match=r"\|z\|"):
        bessel_i(0, 101.0)


def gram_from_vectors(vectors):
    m = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    return Hermitian3(m)


def test_det3_identity():
    assert det3(Hermitian3(np.eye(3))) == 1.0


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
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = Hermitian3((a + a.conj().T) / 2)
        assert det3(g) == pytest.approx(float(np.linalg.det(g.mat).real), abs=1e-10)


def test_det3_equals_product_of_eigvals():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = Hermitian3((a + a.conj().T) / 2)
        assert det3(g) == pytest.approx(float(np.prod(np.linalg.eigvalsh(g.mat))), rel=1e-9, abs=1e-9)


def test_vector_grams_are_psd():
    rng = np.random.default_rng(14)
    for _ in range(200):
        dim = int(rng.integers(3, 12))
        vecs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(3)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        g = gram_from_vectors(vecs)
        assert np.linalg.eigvalsh(g.mat)[0] >= -1e-10
        assert det3(g) >= -1e-10


def test_hermitian3_rejects_bad_input():
    with pytest.raises(ValueError, match="3x3"):
        Hermitian3(np.eye(2))
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        Hermitian3(bad)
    with pytest.raises(ValueError, match="finite"):
        Hermitian3(np.diag([1.0, np.nan, 1.0]))


def test_hermitian3_symmetry_exact():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = Hermitian3((a + a.conj().T) / 2)
    assert np.array_equal(g.mat, g.mat.conj().T)
    assert np.all(np.diag(g.mat).imag == 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_upper_rejects_non_finite_entries(bad):
    diag, upper = (1.0, 1.0, 1.0), (0.5, 0.25j, 0.1 - 0.2j)
    for i in range(3):
        cases = [(diag[:i] + (bad,) + diag[i + 1:], upper)]
        for z in (complex(bad, 0.3), complex(0.3, bad)):
            cases.append((diag, upper[:i] + (z,) + upper[i + 1:]))
        for d, u in cases:
            with pytest.raises(ValueError, match="finite"):
                Hermitian3.from_upper(d, u)


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


def test_from_upper_equals_validated_full_matrix():
    rng = np.random.default_rng(16)
    for _ in range(200):
        diag, upper = random_upper(rng)
        g = Hermitian3.from_upper(diag, upper)
        ref = Hermitian3(full_matrix(diag, upper))
        assert g.mat.dtype == ref.mat.dtype and g.mat.shape == (3, 3)
        assert np.array_equal(g.mat.view(float), ref.mat.view(float))
        assert not g.mat.flags.writeable


def numpy_cofactor_det(m):
    """Cofactor expansion on 0-d numpy entries: the reference det3 must match bit for bit."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def test_det3_equals_numpy_cofactor_expansion_exactly():
    rng = np.random.default_rng(17)
    for _ in range(500):
        diag, upper = random_upper(rng)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for g in (Hermitian3.from_upper(diag, upper), Hermitian3((a + a.conj().T) / 2)):
            assert det3(g) == float(numpy_cofactor_det(g.mat).real)

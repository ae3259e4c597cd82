"""Property tests at the saturating edges: near-collinear Gram matrices,
pure qubits on the Bloch surface, phase and number eigenstates, and
phase-coherent states near |xi| = 1.  Examples are derandomized and no
example database is kept, so every run draws the same cases."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weyl_uncert import families, fock, reports, spin
from weyl_uncert.numerics import det3

EDGE = settings(derandomize=True, database=None, deadline=None, max_examples=60)

angles = st.floats(-math.pi, math.pi)


@st.composite
def near_collinear(draw):
    """Three unit vectors within ``eps`` of one direction, each with its own phase."""
    dim = draw(st.integers(2, 6))
    parts = draw(arrays(np.float64, (3, 2, dim), elements=st.floats(-1.0, 1.0)))
    vecs = parts[:, 0] + 1j * parts[:, 1]
    base = vecs[0] / max(float(np.linalg.norm(vecs[0])), 1e-3)
    eps = draw(st.floats(0.0, 1e-3))
    rows = []
    for w, theta in zip(vecs, draw(st.lists(angles, min_size=3, max_size=3))):
        v = base + eps * w
        norm = float(np.linalg.norm(v))
        v = v / norm if norm > 0.0 else np.eye(dim)[0]
        rows.append(np.exp(1j * theta) * v)
    return np.array(rows)


@EDGE
@given(near_collinear())
def test_closed_form_det_of_near_collinear_vectors(vecs):
    gram = vecs.conj() @ vecs.T  # gram[i, j] = <v_i, v_j>
    cs = reports.CharSet(complex(gram[0, 1]), complex(gram[0, 2]), complex(gram[1, 2]), 1.0)
    ref = float(np.prod(np.linalg.eigvalsh(gram)))
    for det in map(det3, reports.gram_pair(cs)):
        assert abs(det - ref) <= 1e-12
        assert det >= -1e-12


@EDGE
@given(st.floats(0.0, math.pi), angles)
def test_bloch_surface_qubit_saturates_the_triple_sum(theta, phi):
    s = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    _, u_prime, _, _ = reports.functionals(spin.qubit_char(s, 1, 1))
    assert abs(u_prime - 1.0) <= 1e-12


def off_multiple(d):
    return st.integers(-3 * d, 3 * d).filter(lambda x: x % d != 0)


@st.composite
def qudit_eigenstate_pairs(draw):
    """A phase state or a basis state of d levels, and k, l not multiples of d."""
    system = spin.SpinSystem(draw(st.integers(2, 16)))
    d = system.dim
    i = draw(st.integers(0, d - 1))
    if draw(st.booleans()):
        state = spin.phase_state(system, system.m_values()[i])
    else:
        state = spin.QuditState(system, np.eye(d)[i])
    return state, draw(off_multiple(d)), draw(off_multiple(d))


@EDGE
@given(qudit_eigenstate_pairs())
def test_qudit_eigenstates_saturate_the_sum(case):
    state, k, ell = case
    assert abs(spin.report(state, k, ell).u - 1.0) <= 1e-12


@EDGE
@given(st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.floats(-1e3, 1e3))
def test_number_states_saturate_the_sum(n_k, phi):
    n, k = n_k
    state = families.build(families.NumberState(n))
    assert abs(fock.report(state, k, phi).u - 1.0) <= 1e-12


@settings(EDGE, max_examples=25)
@given(st.floats(-3.0, 0.0), angles, st.integers(1, 4))
@example(-3.0, 0.0, 1)
@example(-3.0, 2.5, 4)
def test_phase_coherent_near_unit_xi_at_the_stringent_point(log_gap, theta, k):
    # |xi| = 1 - 10^log_gap runs from 0 to 0.999, denser towards 1.
    r = 1.0 - 10.0**log_gap
    spec = families.PhaseCoherent(r * complex(math.cos(theta), math.sin(theta)))
    phi = math.pi / k
    assert fock.report(families.build(spec, max_nmax=20000), k, phi).u <= 1.0 + 1e-9
    assert families.oracle_check(spec, k, phi, max_nmax=20000) <= 1e-10

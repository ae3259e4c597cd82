"""Property tests at the saturating edges: near-collinear Gram matrices,
pure qubits on the Bloch surface, phase and number eigenstates,
phase-coherent states near |xi| = 1, and the single mode as a qudit that
never wraps.  Examples are derandomized and no example database is kept,
so every run draws the same cases."""

import contextlib
import io
import json
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weyl_uncert import analysis, cli, families, fock, reports, spin, verify
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
    state = families.build(spec, max_nmax=20000)
    assert fock.report(state, k, phi).u <= 1.0 + 1e-9
    assert families.oracle_check(spec, state, k, phi) <= 1e-10


@st.composite
def padded_single_modes(draw):
    """Amplitudes c_0..c_N (N < 200), k <= 7, d levels with N + 1 + k <= d <= N + k + 50, l in [-3d, 3d)."""
    n, k = draw(st.integers(0, 199)), draw(st.integers(1, 7))
    d = draw(st.integers(n + 1 + k, n + k + 50))
    amps = fock.random_state(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))).amplitudes
    return amps, k, d, draw(st.integers(-3 * d, 3 * d - 1))


def cut_phase_coherent(xi, levels):
    c = xi ** np.arange(levels)
    return c / np.linalg.norm(c)


@settings(EDGE, max_examples=200)
@given(padded_single_modes())
@example((np.eye(8)[5], 3, 11, 4))  # a number state
@example((np.eye(8)[7], 2, 12, 3))  # at k phi = pi
@example((cut_phase_coherent(0.9 * np.exp(0.3j), 40), 2, 44, 11))  # phase-coherent, cut, at k phi = pi
@example((cut_phase_coherent(0.999, 150), 1, 152, 76))
@example((cut_phase_coherent(-0.99j, 100), 3, 108, 18))
def test_single_mode_is_a_qudit_that_never_wraps(case):
    # Zero-padded to d >= N + 1 + k levels (m = n - j), no shift^k wraps: at phi = 2 pi l / d the
    # qudit's set is the single mode's, its clock phases exp(i phi n) times g = exp(-i pi (d - 1) l / d).
    amps, k, d, ell = case
    phi, g = 2 * math.pi * ell / d, np.exp(-1j * math.pi * (d - 1) * ell / d)
    mode = fock.char_set(fock.FockState(amps), k, phi)
    qudit = spin.char_set(spin.QuditState(spin.SpinSystem(d), np.pad(amps, (0, d - amps.size))), k, ell)
    # Rounding of phi n in the phase table, of k phi in the Weyl phase, and of g.
    tol = 4 * 2.0**-52 * (1 + (amps.size - 1 + k) * abs(phi) + math.pi * abs(ell))
    assert abs(qudit.number_char - g * mode.number_char) <= tol
    assert abs(qudit.phase_char - mode.phase_char) <= tol
    assert abs(qudit.cross_char - np.conj(g) * mode.cross_char) <= tol
    assert abs(qudit.weyl - mode.weyl) <= tol


# ---------------------------------------------------------------------------
# the exit-code contract of the command line, in process

NUMBERS = ("0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "1e400", "-1e400", "nan", "inf", "-inf",
           "1e-300", "12345678901234567890", "-12345678901234567890", "1+2j", "0.5j", "-1", "abc", "")
numbers = st.sampled_from(NUMBERS) | st.floats(allow_nan=True, allow_infinity=True).map(repr)
# Counts that are too small or do not parse (steps <= 7 and samples <= 5 elsewhere).
counts = st.sampled_from(("1", "0", "-1", "-0.0", "5e-324", "1e400", "nan", "1+2j", "abc", ""))


def slot(accepted, adversarial=numbers):
    # Three times in four a value the command accepts, else an adversarial one.
    return st.sampled_from((accepted, accepted, accepted, adversarial)).flatmap(lambda values: values)


def reals(lo, hi):
    return st.floats(lo, hi).map(repr)


@st.composite
def adversarial_specs(draw):
    tag = draw(st.sampled_from((*families.SPEC_KEYS, "nope")))
    keys = draw(st.lists(st.sampled_from((*families.SPEC_KEYS.get(tag, ()), "bogus")), max_size=4))
    return f"{tag}:" + ",".join(f"{key}={draw(numbers)}" for key in keys)


# (spec, swept parameter, range inside its domain)
SWEEPS = (("phase-coherent:xi=0.5", "xi", 0.05, 0.9), ("bessel:lambda=1", "lambda", 0.2, 2.0),
          ("intermediate:alpha2=0.5,n=3,xi=0.5", "alpha2", 0.0, 1.0),
          ("gaussian:nbar=30,a=0.05,b=0", "b", -0.5, 0.5), ("number:n=3", "n", 1.0, 4.0))


@st.composite
def sweeps(draw):
    spec, param, lo, hi = draw(st.sampled_from(SWEEPS))
    a, b = sorted((draw(st.floats(lo, hi)), draw(st.floats(lo, hi))))
    return ["--family", draw(slot(st.just(spec), adversarial_specs())),
            "--param", draw(slot(st.just(param), st.sampled_from(("q", "n", "xi")))),
            "--from", draw(slot(st.just(repr(a)))), "--to", draw(slot(st.just(repr(b))))]


def command(name, *parts, **options):
    # parts: strategies of argv lists, always given; options: each given or left out, None a flag.
    opts = [st.just([]) | v.map(lambda x, k=k: [k] if x is None else [k, x]) for k, v in options.items()]
    return st.tuples(*parts, *opts).map(lambda t: [name, *(p for part in t for p in part)])


def required(option, values):
    return values.map(lambda x: [option, x])


phase = {"--k": slot(st.sampled_from(("1", "2", "3"))), "--phi-over-pi": slot(reals(-2.0, 2.0))}
ARGV = st.one_of(
    command("verify", required("--suite", slot(st.sampled_from(verify.SUITES), st.just("x"))),
            **{"--samples": slot(st.integers(1, 5).map(str), counts),
               "--seed": slot(st.integers(0).map(str))}),
    command("scan", sweeps(), required("--steps", slot(st.integers(2, 7).map(str), counts)),
            **phase, **{"--log-spaced": st.none(),
                        "--format": slot(st.sampled_from(("csv", "json")), st.just("xml"))}),
    command("figure", required("--id", slot(st.sampled_from(("1", "2", "3", "4")))),
            **{"--format": st.sampled_from(("csv", "json"))}),
    command("extremum", sweeps(), required("--functional", slot(st.sampled_from(analysis.FUNCTIONALS))),
            required("--kind", slot(st.sampled_from(("min", "max")))), **phase),
    command("qubit", **{s: slot(reals(-0.5, 0.5)) for s in ("--sx", "--sy", "--sz")},
            **{"--k": slot(st.sampled_from(("1", "2"))), "--ell": slot(st.sampled_from(("1", "2")))}),
    st.lists(st.sampled_from(("", "help", "qubits", "--k", "1", "-1e308")), max_size=3),  # no subcommand
)


@settings(EDGE, max_examples=500)
@given(ARGV)
@example(["qubit", "--sx", "1e200"])
@example(["scan", "--family", "phase-coherent:xi=0.5", "--param", "xi", "--from", "-1e308", "--to", "1e308",
          "--steps", "3"])
# A bracket that floats cannot split down to 1e-6:
@example(["extremum", "--family", "gaussian:nbar=30,a=0.05,b=0", "--param", "b", "--from", "0",
          "--to", "1e15", "--functional", "U", "--kind", "min"])
def test_cli_exits_0_or_2_with_one_line_and_prints_no_nan(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {families.TRUNCATION_CAP_ENV: "512"}), warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # the parser's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2) or (code == 1 and argv[0] == "verify"), (code, err)
    if code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        return
    assert err == ""
    if argv[0] in ("scan", "figure") and "json" not in argv:
        cells = {cell.lower() for line in out.splitlines() for cell in line.split(",")}
        assert not {"nan", "inf", "-inf"} & cells
    elif argv[0] != "verify":
        json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON output"))

"""Randomized property suites behind the ``verify`` CLI command.

Each suite draws seeded random states, checks the module invariants (Weyl
identities, Gram positivity, certainty bounds, closed-form oracles) and
collects human-readable failure descriptions.  Oracles here are dense
operators or test-local slice sums, built apart from the production paths.

Both systems share three tools.  :func:`_table_failures` runs the Gram
step and the bounds once on a ``CharSet`` table indexed [state, config]:
spin's drawn (k, l) pairs of one d, or fock's k = 1, 2, 4 at phi = pi/k of
one n_max.  :func:`_oracle_off` compares a set with dense <F>, <S>, <F^-1 S>
and pi_k, or with a closed form; :func:`_check` counts every other check.  A
failure line reads ``<where>: <what>; amplitudes=<state>``; a table entry
gives one per failed condition, ``Gram determinant negative (det+, det-)`` or
``<F>=<value> exceeds <limit>`` for F in U, U', U'', V, state by state,
then by config.  The checks drawn per state (spin's cyclic phase; fock's
phase sum, Weyl relation and Hermiticity in phi at the state's own k and
phi) follow the table lines of their dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import families, fock, reports, spin
from .numerics import det3

_DET_TOL = -1e-10
_BOUND_TOL = 1e-9


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _amps(vec: np.ndarray) -> str:
    # Shortest round-trip digits, so a failing state can be rebuilt from its message.
    return np.array2string(np.asarray(vec), separator=",", max_line_width=10**9, floatmode="unique")


def _check(res: SuiteResult, off: float, tol: float, text, amps=None) -> None:
    # One check, failed unless off <= tol (so NaN fails); text(off) and the
    # amplitudes are formatted only for a failure.
    res.checks += 1
    if not off <= tol:
        res.failures.append(text(off) if amps is None else f"{text(off)}; amplitudes={_amps(amps)}")


def _table_failures(res: SuiteResult, cs: reports.CharSet, limits: dict, where, states) -> float:
    """Check one table ``cs`` indexed [state, config]: both Gram determinants
    at least ``_DET_TOL``, and each functional named in ``limits`` at most its
    limit (per config) + ``_BOUND_TOL``.  Counts one check per entry, appends
    the failures of ``where[config]`` quoting ``states[state]``, and returns
    the least determinant."""
    det_plus, det_minus = (det3(g) for g in reports.gram_pair(cs))
    funcs = dict(zip(("U", "U'", "U''", "V"), reports.functionals(cs)))
    limits = {name: np.broadcast_to(limits[name], det_plus.shape) for name in funcs if name in limits}
    bad = {name: ~(funcs[name] <= limit + _BOUND_TOL) for name, limit in limits.items()}
    bad["det"] = ~((det_plus >= _DET_TOL) & (det_minus >= _DET_TOL))
    res.checks += det_plus.size
    for s, i in np.argwhere(np.logical_or.reduce(list(bad.values()))):
        texts = [f"{name}={float(funcs[name][s, i])!r} exceeds {float(limit[s, i])!r}"
                 for name, limit in limits.items() if bad[name][s, i]]
        if bad["det"][s, i]:
            texts.insert(0, f"Gram determinant negative ({det_plus[s, i]:.3e}, {det_minus[s, i]:.3e})")
        res.failures += [f"{where[i]}: {t}; amplitudes={_amps(states[s])}" for t in texts]
    return min(float(det_plus.min()), float(det_minus.min()))


# ---------------------------------------------------------------------------
# dense oracles, constructed independently of the production code paths


def _dense_shift(d: int) -> np.ndarray:
    # Direct construction: cyclic shift m -> m+1 with wrap phase exp(-i 2pi j).
    j = (d - 1) / 2.0
    m = np.eye(d, k=-1, dtype=complex)
    m[0, d - 1] = np.exp(-2j * math.pi * j)
    return m


def _dense_clock(d: int) -> np.ndarray:
    j = (d - 1) / 2.0
    return np.diag(np.exp(2j * math.pi * (np.arange(d) - j) / d))


def _dense_fock_lower(n_dim: int) -> np.ndarray:
    return np.eye(n_dim, k=1, dtype=complex)


def _dense_chars(c: np.ndarray, f: np.ndarray, s: np.ndarray) -> tuple:
    # <F>, <S>, <F^-1 S> and 1 - <S S^dag> (pi_k, the weight S^dag annihilates) for dense F, S.
    return (np.vdot(c, f @ c), np.vdot(c, s @ c), np.vdot(c, f.conj().T @ s @ c),
            1.0 - np.vdot(c, s @ (s.conj().T @ c)).real)


def _oracle_off(cs: reports.CharSet, *ref) -> float:
    """Largest deviation of the three characters and pi_k of ``cs`` from the four values ``ref``."""
    return max(abs(x - y) for x, y in zip((cs.number_char, cs.phase_char, cs.cross_char, cs.pi_k), ref))


def _closed_form_off(spec: families.FamilySpec, st: fock.FockState, k: int, phi: float) -> float:
    cf = families.closed_form_char(spec, k, phi)  # families.oracle_check on a state built once
    return _oracle_off(fock.char_set(st, k, phi), cf.number_char, cf.phase_char, cf.cross_char, cf.pi_k)


# ---------------------------------------------------------------------------
# spin suite


def _spin_pairs(d: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    if d <= 8:
        return [(k, l) for k in range(1, d + 1) for l in range(1, d + 1)]
    pairs = {(1, d // 2), (1, d), (d, d)}
    while len(pairs) < 32:
        pairs.add((int(rng.integers(1, d + 1)), int(rng.integers(1, d + 1))))
    return sorted(pairs)


def run_spin(samples: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    res = SuiteResult("spin")
    dims = (2, 3, 4, 5, 8, 16)
    per = max(1, samples // len(dims))
    min_det = math.inf

    for d in dims:
        system = spin.SpinSystem(d)
        pairs = _spin_pairs(d, rng)
        at = (..., *(np.array(pairs).T - 1))  # each pair's entry in a table row
        gammas = [spin.weyl_angle(system, k, l) for k, l in pairs]
        bound = np.array([spin.certainty_bound(g) for g in gammas])
        drawn = []  # (state, k, l) of the cyclic check, in rng order
        for _ in range(per):
            st = spin.random_state(system, rng)
            drawn.append((st, int(rng.integers(1, 2 * d + 1)), int(rng.integers(1, 2 * d + 1))))
        states = [st.amplitudes for st, _, _ in drawn]
        full = vars(spin.char_table(np.array(states))).values()
        shape = np.broadcast_shapes(*map(np.shape, full))
        table = reports.CharSet(*(np.broadcast_to(x, shape)[at] for x in full))
        at_pi = np.abs(np.array(gammas) - math.pi) <= 1e-9
        limits = {"U": bound, "U'": np.where(at_pi, 1.0, math.inf), "V": bound / 2}
        where = ["spin d={} k={} l={}".format(d, *pair) for pair in pairs]
        min_det = min(min_det, _table_failures(res, table, limits, where, states))
        for st, k, l in drawn:
            off = abs(spin.cyclic_phase(st, k, l) - np.exp(-2j * math.pi * ((k * l) % d) / d))
            _check(res, off, 1e-10, lambda _: f"spin d={d}: cyclic excursion phase off at k={k} l={l}",
                   st.amplitudes)

    for d in dims + (32, 64):
        system = spin.SpinSystem(d)
        for _ in range(8):
            k = int(rng.integers(1, 2 * d + 1))
            l = int(rng.integers(1, 2 * d + 1))
            _check(res, spin.weyl_defect(system, k, l), 1e-12,
                   lambda x: f"spin d={d}: Weyl defect {x:.3e} at k={k} l={l}")

    for d in dims:
        st = spin.random_state(spin.SpinSystem(d), rng)
        c, e, f = st.amplitudes, _dense_shift(d), _dense_clock(d)
        for k in range(1, min(d, 3) + 1):
            for l in range(1, min(d, 3) + 1):
                off = _oracle_off(spin.char_set(st, k, l), *_dense_chars(
                    c, np.linalg.matrix_power(f, l), np.linalg.matrix_power(e, k)))
                _check(res, off, 1e-12,
                       lambda _: f"spin d={d} k={k} l={l}: char set disagrees with dense oracle", c)

    res.stats["min_gram_det"] = min_det
    return res


# ---------------------------------------------------------------------------
# fock suite


def run_fock(samples: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    res = SuiteResult("fock")
    nmaxes = (8, 32, 128)
    ks = (1, 2, 4)
    per = max(1, samples // len(nmaxes))
    min_det = math.inf

    for n_max in nmaxes:
        drawn = []  # (state, k, phi) of the per-state checks, in rng order
        for _ in range(per):
            st = fock.random_state(n_max, rng)
            k = int(rng.integers(1, min(8, n_max) + 1))
            drawn.append((st, k, float(rng.uniform(-math.pi, math.pi))))
        states = [st.amplitudes for st, _, _ in drawn]
        per_k = zip(*(vars(fock.char_table(states, k, math.pi / k)).values() for k in ks))
        table = reports.CharSet(*(np.stack(np.broadcast_arrays(*x), axis=-1) for x in per_k))
        limits = {"U": 1.0, "U'": 1.0, "U''": 1.0, "V": 0.5}
        where = [f"fock n_max={n_max} k={k}" for k in ks]
        min_det = min(min_det, _table_failures(res, table, limits, where, states))

        n = np.arange(n_max + 1)
        for st, k, phi in drawn:
            # The production set at the state's own (k, phi) against test-local slice sums: <Edag^k>,
            # and weyl * <Edag^k exp(-i phi n)> for the cross char <exp(-i phi n) Edag^k>.
            c = st.amplitudes
            cs, csm = fock.char_set(st, k, phi), fock.char_set(st, k, -phi)
            where = f"fock n_max={n_max} k={k} phi={phi!r}"
            _check(res, abs(cs.phase_char - np.vdot(c[k:], c[:-k])), 1e-12,
                   lambda x: f"{where}: phase char off its slice sum by {x:.3e}", c)
            _check(res, abs(cs.cross_char - cs.weyl * np.vdot(c[k:], np.exp(-1j * phi * n[:-k]) * c[:-k])),
                   1e-12, lambda x: f"{where}: Weyl relation residual {x:.3e}", c)
            _check(res, abs(cs.number_char - csm.number_char.conjugate()), 1e-12,
                   lambda _: f"{where}: number char not Hermitian in phi", c)

    for n_max in (8, 32):
        st = fock.random_state(n_max, rng)
        c, e = st.amplitudes, _dense_fock_lower(n_max + 1)
        for k in (1, 2):
            phi = float(rng.uniform(-math.pi, math.pi))
            rot = np.diag(np.exp(1j * phi * np.arange(n_max + 1)))
            shift = np.linalg.matrix_power(e.conj().T, k)
            off = _oracle_off(fock.char_set(st, k, phi), *_dense_chars(c, rot, shift))
            _check(res, off, 1e-12,
                   lambda _: f"fock n_max={n_max} k={k}: char set disagrees with dense oracle", c)

        grid = np.linspace(-math.pi, math.pi, 1024, endpoint=False)
        dens = fock.phase_distribution(st, grid)
        total = float(np.sum(dens) * (2 * math.pi / grid.size))
        _check(res, abs(total - 1.0), 1e-6,
               lambda _: f"fock n_max={n_max}: phase distribution integrates to {total!r}")
        moment = complex(np.sum(np.exp(2j * grid) * dens) * (2 * math.pi / grid.size))
        _check(res, abs(moment - fock.char_set(st, 2, 1.0).phase_char.conjugate()), 1e-8,
               lambda _: f"fock n_max={n_max}: phase-distribution moment disagrees with char set")

    res.stats["min_gram_det"] = min_det
    return res


# ---------------------------------------------------------------------------
# families suite


def run_families(samples: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    res = SuiteResult("families")
    worst = 0.0

    for _ in range(max(1, samples // 2)):
        r = float(rng.uniform(0.05, 0.9))
        theta = float(rng.uniform(0.0, 2 * math.pi))
        spec = families.PhaseCoherent(r * np.exp(1j * theta))
        k = int(rng.integers(1, 4))
        phi = math.pi if rng.integers(2) else math.pi / 2
        c = (st := families.build(spec)).amplitudes
        dev = _closed_form_off(spec, st, k, phi)
        worst = max(worst, dev)
        _check(res, dev, 1e-10,
               lambda x: f"families phase-coherent xi={spec.xi!r} k={k}: deviation {x:.3e}")
        resid = float(np.linalg.norm(np.append(c[1:], 0) - spec.xi * c))  # |E psi - xi psi|
        _check(res, resid, 1e-5,
               lambda x: f"families phase-coherent xi={spec.xi!r}: eigenvector residual {x:.3e}")

    for _ in range(max(1, samples // 4)):
        lam = float(rng.uniform(0.2, 3.0))
        spec = families.BesselEigenstate(lam)
        c = (st := families.build(spec)).amplitudes
        # |(n + i lam Edag) psi|, Edag psi on one more level
        resid = float(np.linalg.norm(np.append(np.arange(c.size) * c, 0) + 1j * lam * np.append(0, c)))
        _check(res, resid, 1e-8, lambda x: f"families bessel lambda={lam!r}: eigen-residual {x:.3e}")
        k = int(rng.integers(1, 3))
        phi = (math.pi, math.pi / 2, 1.0)[int(rng.integers(3))]
        _check(res, _closed_form_off(spec, st, k, phi), 1e-8,
               lambda x: f"families bessel lambda={lam!r} k={k}: deviation {x:.3e}")

    for _ in range(max(1, samples // 8)):
        a = float(rng.uniform(0.005, 0.05))
        b = float(rng.choice([0.0, 0.3]))
        spec = families.GaussianNumber(400.0, a, b)
        _check(res, _closed_form_off(spec, families.build(spec), 1, 4.0 * math.sqrt(a)), 1e-10,
               lambda x: f"families gaussian a={a!r} b={b!r}: deviation {x:.3e}")

    for a2 in (0.25, 0.5, 0.75):
        spec = families.Intermediate(a2, 3, 0.999)
        st = families.build(spec, max_nmax=20000)
        _check(res, _closed_form_off(spec, st, 1, math.pi), 5e-2,
               lambda x: f"families intermediate alpha2={a2}: deviation {x:.3e}")
        rep = fock.report(st, 1, math.pi)
        res.checks += 1
        if rep.u_double_prime > 1.0 + _BOUND_TOL:
            res.failures.append(f"families intermediate alpha2={a2}: U'' exceeds 1")
        if abs(rep.u_double_prime - (a2**2 + (1 - a2) ** 2)) > 5e-2:
            res.failures.append(f"families intermediate alpha2={a2}: U'' far from asymptotic weight sum")

    res.stats["max_phase_coherent_deviation"] = worst
    return res


_SUITES = {"spin": run_spin, "fock": run_fock, "families": run_families}
SUITES = (*_SUITES, "all")


def run(suite: str, samples: int, seed: int) -> list[SuiteResult]:
    """Run one named suite, or all of them."""
    if suite == "all":
        return [fn(samples, seed) for fn in _SUITES.values()]
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected {', '.join(_SUITES)} or all")
    return [_SUITES[suite](samples, seed)]

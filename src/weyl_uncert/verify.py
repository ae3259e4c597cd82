"""Randomized property suites behind the ``verify`` CLI command.

Each suite draws seeded random states, checks the module invariants (Weyl
identities, Gram positivity, certainty bounds, closed-form oracles) and
collects human-readable failure descriptions.  Oracles here are dense
operators or test-local slice sums, built apart from the production paths.

The spin and fock suites draw each state with the k, l or phi of its own
checks, then check the Gram determinants and bounds of all states of one
dimension in one array pass: one ``spin.char_table`` per d over the drawn
(k, l) pairs, one ``fock.char_table`` per n_max and k, and
``reports.gram_pair``, ``det3`` and ``reports.functionals`` on the stack.
Only checks with per-state draws (spin's cyclic phase; fock's phase sum, Weyl
relation and Hermiticity in phi, read from ``fock.char_set`` at the state's
own k and phi) loop over states.  Failures are listed state by state,
then by pair or k, and quote the table entries the check read.
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
        applicable = np.abs(np.array(gammas) - math.pi) <= 1e-9
        drawn = []  # (state, k, l) of the cyclic check, in rng order
        for _ in range(per):
            st = spin.random_state(system, rng)
            drawn.append((st, int(rng.integers(1, 2 * d + 1)), int(rng.integers(1, 2 * d + 1))))
        table = spin.char_table(np.array([st.amplitudes for st, _, _ in drawn]))
        det_plus, det_minus = (det3(g)[at] for g in reports.gram_pair(table))
        u, u_prime, _, v = (x[at] for x in reports.functionals(table))
        res.checks += per * (len(pairs) + 1)
        min_det = min(min_det, float(det_plus.min()), float(det_minus.min()))
        det_bad = (det_plus < _DET_TOL) | (det_minus < _DET_TOL)
        u_bad = u > bound + _BOUND_TOL
        v_bad = v > bound / 2 + _BOUND_TOL
        triple_bad = applicable & (u_prime > 1.0 + _BOUND_TOL)
        for s, (st, k, l) in enumerate(drawn):
            for i in np.flatnonzero(det_bad[s] | u_bad[s] | v_bad[s] | triple_bad[s]):
                dp, dm, ui, upi, vi = (float(x[s, i]) for x in (det_plus, det_minus, u, u_prime, v))
                texts = ((det_bad, f"Gram determinant negative ({dp:.3e}, {dm:.3e})"),
                         (u_bad, f"U={ui!r} exceeds bound {float(bound[i])!r}"),
                         (v_bad, f"V={vi!r} exceeds bound/2"),
                         (triple_bad, f"triple sum {upi!r} exceeds 1"))
                where, amps = "spin d={} k={} l={}".format(d, *pairs[i]), _amps(st.amplitudes)
                res.failures += [f"{where}: {t}; amplitudes={amps}" for bad, t in texts if bad[s, i]]
            expected = np.exp(-2j * math.pi * ((k * l) % d) / d)
            if abs(spin.cyclic_phase(st, k, l) - expected) > 1e-10:
                res.failures.append(
                    f"spin d={d}: cyclic excursion phase off at k={k} l={l}; "
                    f"amplitudes={_amps(st.amplitudes)}"
                )

    for d in dims + (32, 64):
        system = spin.SpinSystem(d)
        for _ in range(8):
            k = int(rng.integers(1, 2 * d + 1))
            l = int(rng.integers(1, 2 * d + 1))
            res.checks += 1
            defect = spin.weyl_defect(system, k, l)
            if defect > 1e-12:
                res.failures.append(f"spin d={d}: Weyl defect {defect:.3e} at k={k} l={l}")

    for d in dims:
        system = spin.SpinSystem(d)
        st = spin.random_state(system, rng)
        e = _dense_shift(d)
        f = _dense_clock(d)
        c = st.amplitudes
        for k in range(1, min(d, 3) + 1):
            for l in range(1, min(d, 3) + 1):
                cs = spin.char_set(st, k, l)
                ek = np.linalg.matrix_power(e, k)
                fl = np.linalg.matrix_power(f, l)
                ref_number = np.vdot(c, fl @ c)
                ref_phase = np.vdot(c, ek @ c)
                ref_cross = np.vdot(c, fl.conj().T @ ek @ c)
                res.checks += 1
                if max(abs(cs.number_char - ref_number), abs(cs.phase_char - ref_phase),
                       abs(cs.cross_char - ref_cross)) > 1e-12:
                    res.failures.append(
                        f"spin d={d} k={k} l={l}: char set disagrees with dense oracle; "
                        f"amplitudes={_amps(c)}"
                    )

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
        rows = [st.amplitudes for st, _, _ in drawn]
        tables = [fock.char_table(rows, k, math.pi / k) for k in ks]
        dets = np.array([[det3(g) for g in reports.gram_pair(t)] for t in tables])  # [k, +/-, state]
        funcs = np.array([reports.functionals(t) for t in tables])  # [k, U U' U'' V, state]
        res.checks += per * (len(ks) + 3)
        min_det = min(min_det, float(dets.min()))
        det_bad = (dets < _DET_TOL).any(axis=1)
        bound_bad = (funcs > np.array([1.0, 1.0, 1.0, 0.5])[:, None] + _BOUND_TOL).any(axis=1)
        n = np.arange(n_max + 1)
        for s, (st, k, phi) in enumerate(drawn):
            c = st.amplitudes
            for j in np.flatnonzero(det_bad[:, s] | bound_bad[:, s]):
                u, u_prime, u_double_prime, v = map(float, funcs[j, :, s])
                texts = ((det_bad, "Gram determinant negative ({:.3e}, {:.3e})".format(*dets[j, :, s])),
                         (bound_bad, "certainty bound violated "
                                     f"(U={u!r} U'={u_prime!r} U''={u_double_prime!r} V={v!r})"))
                where, amps = f"fock n_max={n_max} k={ks[j]}", _amps(c)
                res.failures += [f"{where}: {t}; amplitudes={amps}" for bad, t in texts if bad[j, s]]

            # The production set at the state's own (k, phi) against test-local slice sums: <Edag^k>,
            # and weyl * <Edag^k exp(-i phi n)> for the cross char <exp(-i phi n) Edag^k>.
            cs, csm = fock.char_set(st, k, phi), fock.char_set(st, k, -phi)
            phase_off = abs(cs.phase_char - np.vdot(c[k:], c[:-k]))
            weyl_off = abs(cs.cross_char - cs.weyl * np.vdot(c[k:], np.exp(-1j * phi * n[:-k]) * c[:-k]))
            hermitian_off = abs(cs.number_char - csm.number_char.conjugate())
            texts = ((phase_off, f"phase char off its slice sum by {phase_off:.3e}"),
                     (weyl_off, f"Weyl relation residual {weyl_off:.3e}"),
                     (hermitian_off, "number char not Hermitian in phi"))
            where = f"fock n_max={n_max} k={k} phi={phi!r}"
            res.failures += [f"{where}: {t}; amplitudes={_amps(c)}" for off, t in texts if off > 1e-12]

    for n_max in (8, 32):
        st = fock.random_state(n_max, rng)
        c = st.amplitudes
        e = _dense_fock_lower(n_max + 1)
        for k in (1, 2):
            phi = float(rng.uniform(-math.pi, math.pi))
            cs = fock.char_set(st, k, phi)
            rot = np.diag(np.exp(1j * phi * np.arange(n_max + 1)))
            edk = np.linalg.matrix_power(e.conj().T, k)
            ref_number = np.vdot(c, rot @ c)
            ref_phase = np.vdot(c, edk @ c)
            ref_cross = np.vdot(c, rot.conj().T @ edk @ c)
            ref_pik = float(np.linalg.norm(c[:k]) ** 2)
            res.checks += 1
            if max(abs(cs.number_char - ref_number), abs(cs.phase_char - ref_phase),
                   abs(cs.cross_char - ref_cross), abs(cs.pi_k - ref_pik)) > 1e-12:
                res.failures.append(
                    f"fock n_max={n_max} k={k}: char set disagrees with dense oracle; "
                    f"amplitudes={_amps(c)}"
                )

        grid = np.linspace(-math.pi, math.pi, 1024, endpoint=False)
        dens = fock.phase_distribution(st, grid)
        total = float(np.sum(dens) * (2 * math.pi / grid.size))
        res.checks += 1
        if abs(total - 1.0) > 1e-6:
            res.failures.append(f"fock n_max={n_max}: phase distribution integrates to {total!r}")
        k = 2
        moment = complex(np.sum(np.exp(1j * k * grid) * dens) * (2 * math.pi / grid.size))
        res.checks += 1
        if abs(moment - fock.char_set(st, k, 1.0).phase_char.conjugate()) > 1e-8:
            res.failures.append(
                f"fock n_max={n_max}: phase-distribution moment disagrees with char set"
            )

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
        dev = families.oracle_check(spec, k, phi)
        worst = max(worst, dev)
        res.checks += 1
        if dev > 1e-10:
            res.failures.append(f"families phase-coherent xi={spec.xi!r} k={k}: deviation {dev:.3e}")

        c = families.build(spec).amplitudes
        resid = float(np.linalg.norm(np.append(c[1:], 0) - spec.xi * c))  # |E psi - xi psi|
        res.checks += 1
        if resid > 1e-5:
            res.failures.append(
                f"families phase-coherent xi={spec.xi!r}: eigenvector residual {resid:.3e}"
            )

    for _ in range(max(1, samples // 4)):
        lam = float(rng.uniform(0.2, 3.0))
        spec = families.BesselEigenstate(lam)
        st = families.build(spec)
        c = st.amplitudes
        ext = np.zeros(c.size + 1, dtype=complex)
        ext[: c.size] = np.arange(c.size) * c
        ext[1:] += 1j * lam * c
        res.checks += 1
        if float(np.linalg.norm(ext)) > 1e-8:
            res.failures.append(
                f"families bessel lambda={lam!r}: eigen-residual {np.linalg.norm(ext):.3e}"
            )
        k = int(rng.integers(1, 3))
        phi = (math.pi, math.pi / 2, 1.0)[int(rng.integers(3))]
        dev = families.oracle_check(spec, k, phi)
        res.checks += 1
        if dev > 1e-8:
            res.failures.append(f"families bessel lambda={lam!r} k={k}: deviation {dev:.3e}")

    for _ in range(max(1, samples // 8)):
        a = float(rng.uniform(0.005, 0.05))
        b = float(rng.choice([0.0, 0.3]))
        spec = families.GaussianNumber(400.0, a, b)
        dev = families.oracle_check(spec, 1, 4.0 * math.sqrt(a))
        res.checks += 1
        if dev > 1e-10:
            res.failures.append(f"families gaussian a={a!r} b={b!r}: deviation {dev:.3e}")

    for a2 in (0.25, 0.5, 0.75):
        spec = families.Intermediate(a2, 3, 0.999)
        dev = families.oracle_check(spec, 1, math.pi, max_nmax=20000)
        res.checks += 1
        if dev > 5e-2:
            res.failures.append(f"families intermediate alpha2={a2}: deviation {dev:.3e}")
        st = families.build(spec, max_nmax=20000)
        rep = fock.report(st, 1, math.pi)
        res.checks += 1
        if rep.u_double_prime > 1.0 + _BOUND_TOL:
            res.failures.append(f"families intermediate alpha2={a2}: U'' exceeds 1")
        if abs(rep.u_double_prime - (a2**2 + (1 - a2) ** 2)) > 5e-2:
            res.failures.append(
                f"families intermediate alpha2={a2}: U'' far from asymptotic weight sum"
            )

    res.stats["max_phase_coherent_deviation"] = worst
    return res


_SUITES = {"spin": run_spin, "fock": run_fock, "families": run_families}


def run(suite: str, samples: int, seed: int) -> list[SuiteResult]:
    """Run one named suite, or all of them."""
    if suite == "all":
        return [fn(samples, seed) for fn in _SUITES.values()]
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected spin, fock, families or all")
    return [_SUITES[suite](samples, seed)]

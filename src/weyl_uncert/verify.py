"""Randomized property suites behind the ``verify`` CLI command.

Each suite draws seeded random states, checks the module invariants (Weyl
identities, Gram positivity, certainty bounds, closed-form oracles) and
collects human-readable failure descriptions.  Oracle comparisons here use
independently constructed dense operators, not the production fast paths.

The spin suite checks the Gram determinants, the certainty bounds and the
triple sum of each random state on all its drawn (k, l) pairs at once: one
``spin.char_table`` per state, ``reports.gram_pair`` with ``det3`` and
``reports.functionals`` on the table, and array comparisons.  Failures are
listed per pair in the drawn order and quote that pair's single-pair values.
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
    m = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        m[i + 1, i] = 1.0
    m[0, d - 1] = np.exp(-2j * math.pi * j)
    return m


def _dense_clock(d: int) -> np.ndarray:
    j = (d - 1) / 2.0
    return np.diag(np.exp(2j * math.pi * (np.arange(d) - j) / d))


def _dense_fock_lower(n_dim: int) -> np.ndarray:
    m = np.zeros((n_dim, n_dim), dtype=complex)
    for i in range(n_dim - 1):
        m[i, i + 1] = 1.0
    return m


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
        at = tuple(np.array(pairs).T - 1)  # each pair's entry in a char table
        gammas = [spin.weyl_angle(system, k, l) for k, l in pairs]
        bound = np.array([spin.certainty_bound(g) for g in gammas])
        applicable = np.abs(np.array(gammas) - math.pi) <= 1e-9
        for _ in range(per):
            st = spin.random_state(system, rng)
            table = spin.char_table(st)
            det_plus, det_minus = (det3(g)[at] for g in reports.gram_pair(table))
            u, u_prime, _, v = (x[at] for x in reports.functionals(table))
            res.checks += len(pairs)
            min_det = min(min_det, float(det_plus.min()), float(det_minus.min()))
            det_bad = (det_plus < _DET_TOL) | (det_minus < _DET_TOL)
            u_bad = u > bound + _BOUND_TOL
            v_bad = v > bound / 2 + _BOUND_TOL
            triple_bad = applicable & (u_prime > 1.0 + _BOUND_TOL)
            for i in np.flatnonzero(det_bad | u_bad | v_bad | triple_bad):
                # A message quotes the single-pair values (spin.char_set and
                # spin.gram_dets) of its printed state, not the table's, which
                # may differ from them in the last digit.
                k, l = pairs[i]
                u_i, u_prime_i, _, v_i = reports.functionals(spin.char_set(st, k, l))
                det_plus_i, det_minus_i = spin.gram_dets(st, k, l)
                where = f"spin d={d} k={k} l={l}"
                amps = _amps(st.amplitudes)
                if det_bad[i]:
                    res.failures.append(
                        f"{where}: Gram determinant negative "
                        f"({det_plus_i:.3e}, {det_minus_i:.3e}); amplitudes={amps}"
                    )
                if u_bad[i]:
                    res.failures.append(
                        f"{where}: U={u_i!r} exceeds bound {float(bound[i])!r}; amplitudes={amps}"
                    )
                if v_bad[i]:
                    res.failures.append(f"{where}: V={v_i!r} exceeds bound/2; amplitudes={amps}")
                if triple_bad[i]:
                    res.failures.append(
                        f"{where}: triple sum {u_prime_i!r} exceeds 1; amplitudes={amps}"
                    )
            k = int(rng.integers(1, 2 * d + 1))
            l = int(rng.integers(1, 2 * d + 1))
            expected = np.exp(-2j * math.pi * ((k * l) % d) / d)
            res.checks += 1
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
                if (
                    abs(cs.number_char - ref_number) > 1e-12
                    or abs(cs.phase_char - ref_phase) > 1e-12
                    or abs(cs.cross_char - ref_cross) > 1e-12
                ):
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
        for _ in range(per):
            st = fock.random_state(n_max, rng)
            c = st.amplitudes
            n = np.arange(n_max + 1)
            for k in ks:
                phi = math.pi / k
                rep = fock.report(st, k, phi)
                res.checks += 1
                min_det = min(min_det, rep.det_plus, rep.det_minus)
                if rep.det_plus < _DET_TOL or rep.det_minus < _DET_TOL:
                    res.failures.append(
                        f"fock n_max={n_max} k={k}: Gram determinant negative "
                        f"({rep.det_plus:.3e}, {rep.det_minus:.3e}); amplitudes={_amps(c)}"
                    )
                if (
                    rep.u > 1.0 + _BOUND_TOL
                    or rep.u_prime > 1.0 + _BOUND_TOL
                    or rep.u_double_prime > 1.0 + _BOUND_TOL
                    or rep.v > 0.5 + _BOUND_TOL
                ):
                    res.failures.append(
                        f"fock n_max={n_max} k={k}: certainty bound violated "
                        f"(U={rep.u!r} U'={rep.u_prime!r} U''={rep.u_double_prime!r} V={rep.v!r}); "
                        f"amplitudes={_amps(c)}"
                    )

            k = int(rng.integers(1, min(8, n_max) + 1))
            res.checks += 1
            raised = fock.apply_raising(st, k)
            back = np.zeros_like(raised)
            back[:-k] = raised[k:]
            if np.linalg.norm(back[: n_max + 1] - c) > 1e-12 or np.linalg.norm(back[n_max + 1 :]) > 0:
                res.failures.append(f"fock n_max={n_max} k={k}: lower(raise(psi)) != psi")
            lowered = fock.apply_lowering(st, k)
            undone = np.zeros_like(lowered)
            undone[k:] = lowered[:-k]
            projected = c.copy()
            projected[:k] = 0.0
            if np.linalg.norm(undone - projected) > 1e-12:
                res.failures.append(
                    f"fock n_max={n_max} k={k}: raise(lower(psi)) != psi - below-k part"
                )

            phi = float(rng.uniform(-math.pi, math.pi))
            res.checks += 1
            lhs = fock.apply_lowering(fock.apply_phase_shift(st, phi), k)
            rhs = np.exp(1j * k * phi) * np.exp(1j * phi * n) * fock.apply_lowering(st, k)
            if np.linalg.norm(lhs - rhs) > 1e-12:
                res.failures.append(
                    f"fock n_max={n_max} k={k} phi={phi!r}: Weyl relation residual "
                    f"{np.linalg.norm(lhs - rhs):.3e}; amplitudes={_amps(c)}"
                )

            res.checks += 1
            csp = fock.char_set(st, 1, phi)
            csm = fock.char_set(st, 1, -phi)
            if abs(csp.number_char - csm.number_char.conjugate()) > 1e-12:
                res.failures.append(f"fock n_max={n_max}: number char not Hermitian in phi")

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
            if (
                abs(cs.number_char - ref_number) > 1e-12
                or abs(cs.phase_char - ref_phase) > 1e-12
                or abs(cs.cross_char - ref_cross) > 1e-12
                or abs(cs.pi_k - ref_pik) > 1e-12
            ):
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

        st = families.build(spec)
        low = fock.apply_lowering(st, 1)
        resid = float(np.linalg.norm(low - spec.xi * st.amplitudes))
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
        if dev > 1e-2:
            res.failures.append(f"families gaussian a={a!r} b={b!r}: deviation {dev:.3e}")

    for a2 in (0.25, 0.5, 0.75):
        spec = families.Intermediate(math.sqrt(a2), math.sqrt(1 - a2), 3, 0.999)
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

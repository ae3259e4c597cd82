"""Acceptance gate: each numbered criterion runs at its stated tolerance and
prints one pass/fail line (visible with pytest -s)."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize, special

from test_numerics import full_matrix
from test_spin import SIGMA_X, SIGMA_Y, SIGMA_Z
from weyl_uncert import analysis, families, fock, reports, spin

BIG_CAP = 20000

CSV_HEADER = "param,U,Uprime,Udoubleprime,V,absPhi,absPhiTilde,absOmega,Pik,nbar"


def conclude(name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail and not failures else ""
    print(f"[acceptance] criterion {name}: {status}{suffix}")
    assert not failures, f"criterion {name}: " + "; ".join(failures[:10])


@pytest.fixture(scope="module")
def fig1_table():
    return analysis.figure_dataset(1)


def test_criterion_01_weyl_identities():
    failures = []
    worst = 0.0
    for d in list(range(2, 17)) + [32, 64]:
        system = spin.SpinSystem(d)
        for k in range(1, 2 * d + 1):
            for ell in range(1, 2 * d + 1):
                defect = spin.weyl_defect(system, k, ell)
                worst = max(worst, defect)
                if defect > 1e-12:
                    failures.append(f"spin d={d} k={k} l={ell}: defect {defect:.2e}")
    rng = np.random.default_rng(101)
    worst_mode = 0.0
    for _ in range(100):
        n_max = int(rng.integers(16, 129))
        st = fock.random_state(n_max, rng)
        k = int(rng.integers(1, 9))
        phi = float(rng.uniform(-math.pi, math.pi))
        n = np.arange(n_max + 1)
        lhs = fock.apply_lowering(fock.apply_phase_shift(st, phi), k)
        rhs = np.exp(1j * k * phi) * np.exp(1j * phi * n) * fock.apply_lowering(st, k)
        resid = float(np.linalg.norm(lhs - rhs))
        worst_mode = max(worst_mode, resid)
        if resid > 1e-12:
            failures.append(f"single-mode n_max={n_max} k={k}: residual {resid:.2e}")
    conclude("1 Weyl identities", failures,
             f"max spin defect {worst:.1e}, max single-mode residual {worst_mode:.1e}")


def test_criterion_02_gram_positivity():
    failures = []
    rng = np.random.default_rng(202)
    dims = (2, 3, 4, 5, 8, 16)
    low = math.inf
    for i in range(1000):
        d = dims[i % len(dims)]
        st = spin.random_state(spin.SpinSystem(d), rng)
        k = int(rng.integers(1, d + 1))
        ell = int(rng.integers(1, d + 1))
        dp, dm = spin.gram_dets(st, k, ell)
        low = min(low, dp, dm)
        if dp < -1e-10 or dm < -1e-10:
            failures.append(f"spin d={d} k={k} l={ell}: dets {dp:.2e} {dm:.2e}")
        if i < 100:
            for kk, ll in ((k, ell), (-k, -ell)):
                g = reports.gram_pair(spin.char_set(st, kk, ll))[0]
                ev = np.linalg.eigvalsh(full_matrix(g.diag, g.upper))[0]
                if ev < -1e-10:
                    failures.append(f"spin d={d}: min eigenvalue {ev:.2e}")
    nmaxes = (8, 32, 128)
    ks = (1, 2, 4)
    for i in range(1000):
        n_max = nmaxes[i % 3]
        k = ks[(i // 3) % 3]
        st = fock.random_state(n_max, rng)
        phi = math.pi / k
        rep = fock.report(st, k, phi)
        dp, dm = rep.det_plus, rep.det_minus
        low = min(low, dp, dm)
        if dp < -1e-10 or dm < -1e-10:
            failures.append(f"fock n_max={n_max} k={k}: dets {dp:.2e} {dm:.2e}")
        if i < 100:
            gp, gm = fock.gram_matrices(fock.char_set(st, k, phi))
            if min(np.linalg.eigvalsh(full_matrix(g.diag, g.upper))[0] for g in (gp, gm)) < -1e-10:
                failures.append(f"fock n_max={n_max} k={k}: negative min eigenvalue")
    conclude("2 Gram positivity", failures, f"most negative determinant {low:.1e}")


def test_criterion_03_bound_suite():
    failures = []
    rng = np.random.default_rng(303)
    for d in (2, 3, 4, 5, 8, 16):
        system = spin.SpinSystem(d)
        for _ in range(40):
            st = spin.random_state(system, rng)
            for k in range(1, d + 1):
                for ell in range(1, d + 1):
                    rep = spin.report(st, k, ell)
                    if rep.u > rep.bound + 1e-9:
                        failures.append(f"spin d={d} k={k} l={ell}: U {rep.u!r} > bound")
                    if rep.v > rep.bound / 2 + 1e-9:
                        failures.append(f"spin d={d} k={k} l={ell}: V {rep.v!r} > bound/2")
                    if rep.applicable and rep.u_prime > 1.0 + 1e-9:
                        failures.append(f"spin d={d} k={k} l={ell}: U' {rep.u_prime!r} > 1")
    for i in range(300):
        n_max = (8, 32, 128)[i % 3]
        st = fock.random_state(n_max, rng)
        for k in (1, 2, 4):
            rep = fock.report(st, k, math.pi / k)
            if not rep.applicable:
                failures.append(f"fock k={k}: stringent point not detected")
            for name, value, bound in (
                ("U", rep.u, 1.0),
                ("U'", rep.u_prime, 1.0),
                ("U''", rep.u_double_prime, 1.0),
                ("V", rep.v, 0.5),
            ):
                if value > bound + 1e-9:
                    failures.append(f"fock n_max={n_max} k={k}: {name} {value!r} > {bound}")
    conclude("3 bound suite", failures)


def test_criterion_04_bound_function():
    failures = []
    if spin.certainty_bound(math.pi) != 1.0:
        failures.append(f"bound at pi is {spin.certainty_bound(math.pi)!r}, not exactly 1")
    if abs(spin.certainty_bound(1e-6) - 2.0) > 1e-6:
        failures.append(f"bound at 1e-6 is {spin.certainty_bound(1e-6)!r}")
    gammas = np.linspace(1e-3, math.pi, 1000)
    values = [spin.certainty_bound(g) for g in gammas]
    if not all(b <= a + 1e-12 for a, b in zip(values, values[1:])):
        failures.append("bound is not monotone decreasing on (0, pi]")
    conclude("4 bound function", failures)


def test_criterion_05_phase_coherent_closed_forms():
    failures = []
    worst = 0.0
    for xi in (0.1, 0.49, 0.7, 0.9, 0.99 * np.exp(1j * math.pi / 3)):
        for k in (1, 2, 3):
            for phi in (math.pi, math.pi / 2):
                dev = families.oracle_check(families.PhaseCoherent(xi), k, phi)
                worst = max(worst, dev)
                if dev > 1e-10:
                    failures.append(f"xi={xi!r} k={k} phi={phi!r}: deviation {dev:.2e}")
    conclude("5 phase-coherent closed forms", failures, f"max deviation {worst:.1e}")


def test_criterion_06_figure1_extrema(fig1_table):
    failures = []
    pc = families.PhaseCoherent(0.5)

    def nbar_at(xi):
        return fock.mean_photon(families.build(families.PhaseCoherent(xi)))

    res_u = analysis.find_extremum(pc, "xi", "U", "min", 0.3, 0.9, 1, math.pi)
    if abs(nbar_at(res_u.param) - 0.575) > 0.05:
        failures.append(f"U argmin nbar {nbar_at(res_u.param)!r}")
    res_up = analysis.find_extremum(pc, "xi", "Uprime", "min", 0.3, 0.9, 1, math.pi)
    if abs(nbar_at(res_up.param) - 0.7) > 0.15:
        failures.append(f"U' argmin nbar {nbar_at(res_up.param)!r}")
    res_upp = analysis.find_extremum(pc, "xi", "Udoubleprime", "min", 0.3, 0.95, 1, math.pi)
    if abs(nbar_at(res_upp.param) - 1.3) > 0.15:
        failures.append(f"U'' argmin nbar {nbar_at(res_upp.param)!r}")
    res_v = analysis.find_extremum(pc, "xi", "V", "max", 0.05, 0.95, 1, math.pi)
    if abs(res_v.param - 0.486) > 0.005:
        failures.append(f"V argmax at {res_v.param!r}")
    if abs(res_v.value - 0.300) > 0.002:
        failures.append(f"V max value {res_v.value!r}")
    if abs(res_v.param**2 - (math.sqrt(5.0) - 2.0)) > 1e-3:
        failures.append(f"V argmax squared {res_v.param**2!r} off the calculus-oracle root")
    # grid cross-check on the figure table itself
    u = fig1_table.column("u")
    nbar_col = fig1_table.column("nbar")
    if abs(nbar_col[int(np.argmin(u))] - 0.575) > 0.05:
        failures.append("figure-1 grid U argmin inconsistent")
    conclude(
        "6 figure-1 extrema",
        failures,
        f"nbar(U)={nbar_at(res_u.param):.3f} nbar(U')={nbar_at(res_up.param):.3f} "
        f"nbar(U'')={nbar_at(res_upp.param):.3f} V={res_v.value:.4f} at |xi|={res_v.param:.4f}",
    )


def test_criterion_07_gaussian_regime():
    failures = []
    # closed forms within 1% where the continuum window holds
    for a in (0.002, 0.01, 0.02, 0.05):
        spec = families.GaussianNumber(400.0, a, 0.0)
        phi = 4.0 * math.sqrt(a)
        cs = fock.char_set(families.build(spec), 1, phi)
        cf = families.closed_form_char(spec, 1, phi)
        cf_n, cf_p = abs(cf.number_char) ** 2, abs(cf.phase_char) ** 2
        rel_n = abs(abs(cs.number_char) ** 2 - cf_n) / cf_n
        rel_p = abs(abs(cs.phase_char) ** 2 - cf_p) / cf_p
        if rel_n > 1e-2:
            failures.append(f"a={a}: |number char|^2 off by {rel_n:.2e}")
        if rel_p > 1e-2:
            failures.append(f"a={a}: |phase char|^2 off by {rel_p:.2e}")

    # minimum of the sum over a k^2 sits at pi/2
    k = 16
    res = analysis.find_extremum(
        families.GaussianNumber(400.0, 0.01, 0.0), "a", "U", "min",
        0.05 / k**2, 20.0 / k**2, k, math.pi / k,
    )
    ak2 = res.param * k**2
    if abs(ak2 - math.pi / 2) > 0.05 * (math.pi / 2):
        failures.append(f"U argmin at a k^2 = {ak2!r}")

    # revival of the extended sum at b = pi/2 for number variance 10
    res_b = analysis.find_extremum(
        families.GaussianNumber(400.0, 1.0 / 40.0, 0.0), "b", "Uprime", "max",
        1.2, 1.9, 1, math.pi,
    )
    if abs(res_b.param - math.pi / 2) > 0.1:
        failures.append(f"revival at b = {res_b.param!r}")

    # stationary point of the certainty product over continuous k
    for b in (0.5, 1.0):
        a = 0.02
        opt = optimize.minimize_scalar(
            # |number_char| * |phase_char| at phi = pi/k, k continuous
            lambda kk: -math.exp(-math.pi**2 / (8 * a * kk * kk) - (a * a + b * b) * kk * kk / (2 * a)),
            bounds=(0.5, 12.0), method="bounded", options={"xatol": 1e-10},
        )
        target = (math.pi / 2.0) * math.sqrt(a * a / (a * a + b * b))
        if abs(a * opt.x**2 - target) > 0.05 * target:
            failures.append(f"b={b}: product stationary at a k^2 = {a * opt.x ** 2!r}")
    conclude("7 Gaussian regime", failures,
             f"U argmin a k^2 = {ak2:.4f}, revival b = {res_b.param:.4f}")


def test_criterion_08_bessel_family():
    failures = []
    for lam in (0.3, 0.77, 1.5, 3.0):
        st = families.build(families.BesselEigenstate(lam))
        c = st.amplitudes
        ext = np.zeros(c.size + 1, dtype=complex)
        ext[: c.size] = np.arange(c.size) * c
        ext[1:] += 1j * lam * c
        resid = float(np.linalg.norm(ext))
        if resid > 1e-8:
            failures.append(f"lambda={lam}: eigen-residual {resid:.2e}")
        for k in (1, 2):
            for phi in (math.pi, math.pi / 2):
                dev = families.oracle_check(families.BesselEigenstate(lam), k, phi)
                if dev > 1e-8:
                    failures.append(f"lambda={lam} k={k}: deviation {dev:.2e}")
    bessel = families.BesselEigenstate(1.0)
    res_u = analysis.find_extremum(bessel, "lambda", "U", "min", 0.4, 1.4, 1, math.pi)
    if abs(res_u.param - 0.77) > 0.02:
        failures.append(f"U argmin lambda {res_u.param!r}")
    res_up = analysis.find_extremum(bessel, "lambda", "Uprime", "min", 0.4, 1.5, 1, math.pi)
    if abs(res_up.param - 0.88) > 0.02:
        failures.append(f"U' argmin lambda {res_up.param!r}")
    # recomputed mean photon numbers, published alongside the locations
    # (the formula nbar = lambda I1(2 lambda)/I0(2 lambda) is the oracle)
    nbars = {}
    for tag, lam in (("u", res_u.param), ("uprime", res_up.param)):
        nbar = fock.mean_photon(families.build(families.BesselEigenstate(lam)))
        ref = lam * special.i1(2 * lam) / special.i0(2 * lam)
        nbars[tag] = nbar
        if abs(nbar - ref) > 1e-8:
            failures.append(f"nbar({lam}) = {nbar!r} disagrees with Bessel-ratio oracle")
    conclude(
        "8 Bessel family",
        failures,
        f"U argmin lambda={res_u.param:.4f} (nbar={nbars['u']:.4f}), "
        f"U' argmin lambda={res_up.param:.4f} (nbar={nbars['uprime']:.4f})",
    )


def test_criterion_09_intermediate_family():
    failures = []
    template = families.Intermediate(1.0, 3, 0.999)

    def rep_at(a2):
        spec = families.with_param(template, "alpha2", a2)
        return fock.report(families.build(spec, max_nmax=BIG_CAP), 1, math.pi)

    res = analysis.find_extremum(
        template, "alpha2", "U", "min", 0.1, 0.9, 1, math.pi, max_nmax=BIG_CAP
    )
    if abs(res.param - 0.5) > 0.02:
        failures.append(f"U extremum at alpha2 = {res.param!r}")
    mid, left, right = rep_at(0.5), rep_at(0.0), rep_at(1.0)
    if not (left.u > mid.u and right.u > mid.u):
        failures.append(
            f"U endpoints ({left.u!r}, {right.u!r}) do not exceed the midpoint {mid.u!r}"
        )
    if not (mid.v > left.v and mid.v > right.v):
        failures.append(
            f"V midpoint {mid.v!r} does not exceed the endpoints ({left.v!r}, {right.v!r})"
        )
    conclude("9 intermediate family", failures,
             f"U extremum at alpha2 = {res.param:.4f}, U mid/ends = "
             f"{mid.u:.3f}/{left.u:.3f}/{right.u:.3f}")


def test_criterion_10_qubit():
    failures = []
    rng = np.random.default_rng(1010)
    eye = np.eye(2, dtype=complex)
    sx, sy, sz = SIGMA_X, SIGMA_Y, SIGMA_Z
    for i in range(1000):
        s = rng.standard_normal(3)
        s *= (1.0 if i % 2 else float(rng.uniform(0.1, 1.0))) / np.linalg.norm(s)
        rho = (eye + s[0] * sx + s[1] * sy + s[2] * sz) / 2.0
        cs = spin.qubit_char(s)
        if (
            abs(cs.number_char - np.trace(rho @ sz)) > 1e-12
            or abs(cs.phase_char - np.trace(rho @ sx)) > 1e-12
            or abs(cs.cross_char - np.trace(rho @ sz @ sx)) > 1e-12
        ):
            failures.append(f"char mismatch at s={s.tolist()!r}")
        duality = s[0] ** 2 + s[2] ** 2
        gap = (1.0 - float(s @ s)) + s[1] ** 2
        if gap <= 1e-12 and abs(duality - 1.0) > 1e-9:
            failures.append(f"pure s_y=0 state off the duality bound at s={s.tolist()!r}")
        if gap > 2e-9 and duality >= 1.0 - 1e-9:
            failures.append(f"duality saturated away from |s|=1, s_y=0 at s={s.tolist()!r}")
    for theta in np.linspace(0.0, 2 * math.pi, 37):
        s = (math.sin(theta), 0.0, math.cos(theta))
        if abs(s[0] ** 2 + s[2] ** 2 - 1.0) > 1e-9:
            failures.append(f"equality misses at theta={theta!r}")
    conclude("10 qubit closed forms", failures)


def test_criterion_11_role_reversal(fig1_table):
    failures = []
    for n in (0, 1, 5):
        c = np.zeros(9, dtype=complex)
        c[n] = 1.0
        rep = fock.report(fock.FockState(c), 1, math.pi)
        if abs(rep.u - 1.0) > 1e-12 or rep.v != 0.0:
            failures.append(f"number state n={n}: U={rep.u!r} V={rep.v!r}")
    rep = fock.report(families.build(families.PhaseCoherent(0.995)), 1, math.pi)
    if rep.u < 0.98:
        failures.append(f"near-phase state: U={rep.u!r} < 0.98")
    if rep.v > 0.1:
        failures.append(f"near-phase state: V={rep.v!r} > 0.1")
    u = fig1_table.column("u")
    v = fig1_table.column("v")
    peak = int(np.argmax(v))
    if not (v[0] < 0.05 and v[-1] < 0.05):
        failures.append("product functional does not vanish at the sweep ends")
    if not (0 < peak < len(v) - 1):
        failures.append("product maximum is not interior")
    if not (u[0] > 0.98 and u[-1] > 0.98 and np.min(u) < 0.85):
        failures.append("sum functional does not return to its bound at the ends")
    if not (u[peak] < u[0] and u[peak] < u[-1]):
        failures.append("extremal roles do not exchange on the figure-1 sweep")
    conclude("11 role reversal", failures)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "weyl_uncert", *args], capture_output=True, text=True
    )


def test_criterion_12_cli_contract(tmp_path):
    failures = []
    proc = run_cli("verify", "--suite", "all", "--samples", "48", "--seed", "5")
    if proc.returncode != 0:
        failures.append(f"verify exited {proc.returncode}: {proc.stdout[-400:]}")
    out1, out2 = tmp_path / "f4a.csv", tmp_path / "f4b.csv"
    for out in (out1, out2):
        if run_cli("figure", "--id", "4", "--out", str(out)).returncode != 0:
            failures.append("figure command failed")
    if out1.read_bytes() != out2.read_bytes():
        failures.append("figure output is not byte-identical across runs")
    if out1.read_text().splitlines()[0] != CSV_HEADER:
        failures.append("CSV header does not match the contract")
    scan_out = tmp_path / "scan.csv"
    proc = run_cli(
        "scan", "--family", "number:n=2", "--param", "n", "--from", "0", "--to", "5",
        "--steps", "6", "--k", "1", "--out", str(scan_out),
    )
    if proc.returncode != 0 or scan_out.read_text().splitlines()[0] != CSV_HEADER:
        failures.append("scan CSV contract violated")
    conclude("12 CLI contract", failures)

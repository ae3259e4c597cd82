"""Parameter sweeps, extremum location, and figure datasets.

Scans evaluate the certainty functionals over a family parameter grid in one
``fock.char_table`` (which also gives each row's nbar) and one ``reports.functionals`` pass,
fed the amplitude runs ``families.sweep`` streams as the grid is read, no FockState per row;
extrema are located by a coarse ``scan``, then golden-section steps, point by point, each state
a ``families.build`` with its tail (the functionals are smooth but no derivative formulas are assumed).
Each standard figure is one row of a table: the family template, swept parameter, grid, k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import families, fock, reports
from .families import FamilySpec

_COARSE_POINTS = 64
_PARAM_TOL = 1e-6
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ScanRow:
    param: float
    u: float
    u_prime: float
    u_double_prime: float
    v: float
    abs_number_char: float
    abs_phase_char: float
    abs_cross_char: float
    pi_k: float
    nbar: float


# The CSV/JSON key of each ScanRow field, in field order; U, U', U'' and V are the functionals.
COLUMNS = ("param", "U", "Uprime", "Udoubleprime", "V", "absPhi", "absPhiTilde", "absOmega", "Pik", "nbar")
FUNCTIONALS = COLUMNS[1:5]


@dataclass(frozen=True)
class ScanTable:
    """Rows of functional values over a strictly ascending parameter grid."""

    swept_parameter: str
    rows: tuple[ScanRow, ...]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


@dataclass(frozen=True)
class ExtremumResult:
    param: float
    value: float
    kind: str
    functional: str
    bracket: tuple[float, float]
    iterations: int
    boundary: bool


def _row_at(template: FamilySpec, param_name: str, value: float, k: int, phi: float, cap: int) -> ScanRow:
    # Golden-section points only.  Its report (a second char_set) stays for perfbench's pin (ROADMAP 0, 1).
    state = families.build(families.with_param(template, param_name, value), cap)
    cs, rep = fock.char_set(state, k, phi), fock.report(state, k, phi)
    return ScanRow(float(value), rep.u, rep.u_prime, rep.u_double_prime, rep.v, abs(cs.number_char),
                   abs(cs.phase_char), abs(cs.cross_char), cs.pi_k, fock.mean_photon(state))


def _rows_at(template: FamilySpec, param_name: str, values, k: int, phi: float, cap: int,
             scale: float = 1.0) -> list[ScanRow]:
    """Each value's ``_row_at``, bitwise, param times ``scale``: one ``char_table`` of a sweep."""
    cs, nbar = fock.char_table(families.sweep(template, param_name, values, cap), k, phi)
    moduli = [reports._abs(z) for z in (cs.number_char, cs.phase_char, cs.cross_char)]
    cols = [x.tolist() for x in (*reports.functionals(cs), *moduli, cs.pi_k, nbar)]
    return [ScanRow(float(x) * scale, *r) for x, r in zip(values, zip(*cols))]


def _grid(lo: float, hi: float, steps: int, log_spaced: bool = False) -> np.ndarray:
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    if not (lo < hi and math.isfinite(float(hi) - float(lo))):
        raise ValueError(f"need lo < hi at a finite width hi - lo, got lo = {lo!r}, hi = {hi!r}")
    if log_spaced and not lo > 0:
        raise ValueError(f"a log-spaced grid needs lo > 0, got {lo!r}")
    return np.geomspace(lo, hi, steps) if log_spaced else np.linspace(lo, hi, steps)


def scan(
    family_template: FamilySpec,
    param_name: str,
    lo: float,
    hi: float,
    steps: int,
    k: int,
    phi: float,
    log_spaced: bool = False,
    max_nmax: int = families.DEFAULT_TRUNCATION_CAP,
) -> ScanTable:
    """Uniform sweep (linear, or log-spaced on request) with one row per grid point."""
    grid = _grid(lo, hi, steps, log_spaced)
    return ScanTable(param_name, tuple(_rows_at(family_template, param_name, grid, k, phi, max_nmax)))


def find_extremum(
    family_template: FamilySpec,
    param_name: str,
    functional: str,
    kind: str,
    lo: float,
    hi: float,
    k: int,
    phi: float,
    max_nmax: int = families.DEFAULT_TRUNCATION_CAP,
) -> ExtremumResult:
    """Locate a min or max of one functional over [lo, hi], lo < hi.

    A 64-point coarse grid brackets the extremum (assumed unimodal on the
    interval), then golden-section refinement narrows the parameter to 1e-6,
    or as far as floats can split the bracket (at |param| above about 1e9).
    An extremum on the interval boundary has the boundary flag set instead of failing.
    """
    if functional not in FUNCTIONALS:
        raise ValueError(f"functional must be one of {FUNCTIONALS}, got {functional!r}")
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be 'min' or 'max', got {kind!r}")
    table = scan(family_template, param_name, lo, hi, _COARSE_POINTS, k, phi, max_nmax=max_nmax)
    field = fields(ScanRow)[COLUMNS.index(functional)].name
    sign = 1.0 if kind == "min" else -1.0

    def f(x: float) -> float:
        return sign * getattr(_row_at(family_template, param_name, x, k, phi, max_nmax), field)

    grid, values = table.column("param"), sign * table.column(field)
    best = int(np.argmin(values))
    boundary = best in (0, _COARSE_POINTS - 1)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _COARSE_POINTS - 1)]

    iterations = 0
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _PARAM_TOL and a < x1 < x2 < b:  # a split inside (a, b) shrinks it, so this ends
        iterations += 1
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    param = (a + b) / 2.0
    value = sign * f(param)
    return ExtremumResult(
        param=float(param),
        value=float(value),
        kind=kind,
        functional=functional,
        bracket=(float(lo), float(hi)),
        iterations=iterations,
        boundary=boundary,
    )


# Figure 2 sweeps the dimensionless product a*k^2.  Realizing it at k = 16
# with nbar = 400 keeps a <= 20/256 inside the family's validity window over
# the whole axis; at k = 1 the upper half of the axis would leave the wide,
# smooth regime the closed forms (and the figure) describe.
_FIG2_K = 16
_FIG2_K2 = float(_FIG2_K * _FIG2_K)
_FIG3_A = 1.0 / 40.0  # number variance 10 = 1/(4a)

# figure id -> (template, swept parameter, lo, hi, steps, k, log-spaced);
# every figure is taken at phi = pi / k.
_FIGURES = {
    1: (families.PhaseCoherent(0.5), "xi", 0.01, 0.995, 199, 1, False),
    2: (families.GaussianNumber(400.0, 0.01), "a", 0.05 / _FIG2_K2, 20.0 / _FIG2_K2, 160, _FIG2_K, True),
    3: (families.GaussianNumber(400.0, _FIG3_A), "b", -0.5, 2.5, 151, 1, False),
    4: (families.BesselEigenstate(1.0), "lambda", 0.1, 3.0, 146, 1, False),
}
FIGURE_IDS = tuple(_FIGURES)


def figure_dataset(figure_id: int, max_nmax: int = families.DEFAULT_TRUNCATION_CAP) -> ScanTable:
    """The scan behind one of the standard figures, as its _FIGURES row sets it;
    figure 2's parameter column is a*k^2, swept log-spaced in [0.05, 20]."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    template, name, lo, hi, steps, k, log_spaced = _FIGURES[figure_id]
    column, scale = ("ak2", _FIG2_K2) if figure_id == 2 else (name, 1.0)
    grid = _grid(lo, hi, steps, log_spaced)
    return ScanTable(column, tuple(_rows_at(template, name, grid, k, math.pi / k, max_nmax, scale)))

"""Truncated single-mode phase and number machinery.

States are amplitude vectors over photon numbers 0..n_max.  The exponential of phase is the
one-sided-unitary operator E with E|n+1> = |n> (the Susskind-Glogower shift).  No operator is applied:
inside the sums, E^k pairs c_{n+k} with c_n (the slices c[k:] and c[:-k]), and exp(i phi n) is a diagonal
phase read from the one table kept for the last phi; a phi is rejected unless phi * n stays a finite float
for every n below twice the length asked for, the most a kept table grows to.  :func:`weyl_phase` alone
checks that k*phi is a finite float and forms the Weyl phase exp(-i k phi), here and for closed forms.
Characteristic functions are O(n_max) sums over amplitudes (real rows read as given, with no complex
copy), of one state or (:func:`char_table`) of stacks of them, read one at a time into one table checked
once, with each row's nbar; the phase density on a periodic grid of M points is one FFT at length M,
folded modulo M only when n_max + 1 > M (other grids are rejected).  Dense operators are test oracles.

Characteristic sets are :class:`reports.CharSet` records, checked once
when made.  The two Gram matrices of {psi, exp(+-i phi n) psi, Edag^k /
E^k psi} differ because E is not unitary: the second carries exp(-i k phi)
(the Weyl phase) on its cross entry and the weight of the subspace with
fewer than k photons (pi_k) on its diagonal.  :func:`report` builds them
with :func:`gram_matrices` (``reports.gram_pair``), takes their ``det3``
determinants and hands both to ``reports.report``, the one recipe of the
record for both systems: bound 1, all of U, U', U'', V, and every slack at
the stringent point k*phi = pi (mod 2pi) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import det3
from .reports import CharSet, UncertaintyReport, gram_pair, integer, unit_amplitudes, report as record

_GRID_TOL = 1e-12


@dataclass(frozen=True)
class FockState:
    """Unit-norm amplitudes c_0..c_{n_max} plus a certified truncation tail bound.

    ``tail_bound`` is an upper bound on the probability mass an analytic
    family constructor discarded; it is 0 for states given directly.
    """

    amplitudes: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        c = np.asarray(self.amplitudes, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("amplitudes must be a non-empty 1-D vector")
        object.__setattr__(self, "amplitudes", unit_amplitudes(c))
        if not 0.0 <= self.tail_bound < math.inf:
            raise ValueError("tail_bound must be finite and >= 0")

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1


_kept = [(math.nan, np.ones(0, dtype=complex))]  # [(the last phi, its read-only table)]


def _phase_table(phi: float, size: int) -> np.ndarray:
    # exp(i phi n), n < size: a prefix of the one table kept per process, rebuilt only for
    # another phi (at size) or a larger size (at least doubled, so a scan whose n_max climbs
    # builds O(log n_max) tables).  exp is elementwise: a prefix is bitwise a fresh table.
    kept_phi, table = _kept[0]
    if not (phi == kept_phi and size <= table.size):
        if not math.isfinite(phi * 2 * size):  # each table built here is under 2 size long
            raise ValueError(f"phi = {phi!r} is too large: phi * n must be finite for n < {2 * size}")
        table = np.exp(1j * phi * np.arange(max(size, 2 * table.size) if phi == kept_phi else size))
        table.flags.writeable = False
        _kept[0] = phi, table  # one store: a reader sees the old pair or the new
    return table[:size]


def _sums(amps: np.ndarray, k: int, phi: float) -> tuple:
    # The number, phase and cross sums and pi_k along the last axis of amps, and the |c|^2 they read. Real
    # amps are not cast: the pair operands x - 0i, y + 0i are a cast's, |x + 0i| is |x|; np.vecdot conjugates.
    pair = np.conj(amps[..., k:], dtype=complex) * amps[..., :-k]
    phases, probs = _phase_table(phi, amps.shape[-1]), np.abs(amps)
    probs *= probs
    return (probs @ phases, np.add.reduce(pair, -1), np.vecdot(phases[k:], pair),
            np.add.reduce(probs[..., :k], -1), probs)


def weyl_phase(k: int, phi: float) -> tuple[int, complex]:
    """(k, exp(-i k phi)) for a count k >= 1 at which k*phi is a finite float, else one ValueError."""
    k = integer("k", k, 1)
    if not math.isfinite(k * phi):  # k >= 1: so phi is finite too
        raise ValueError(f"k*phi must be finite, got k = {k}, phi = {phi!r}")
    return k, complex(np.exp(-1j * k * phi))


def char_set(state: FockState, k: int, phi: float) -> CharSet:
    """Characteristic set by direct amplitude sums: number_char = <exp(i phi n)>,
    phase_char = <Edag^k>, cross_char = <exp(-i phi n) Edag^k> and pi_k, the
    population of photon numbers below k.

    One phase table exp(i phi n), n <= n_max, a prefix of the one kept for
    the last phi (:func:`_phase_table`), serves both sums: the cross sum
    reads its conjugate from n = k on, which is bitwise exp(-i phi n) since
    cos is even and sin odd.  pi_k is clamped to 1, which its sum exceeds
    by rounding when the whole support lies below k.
    """
    k, weyl = weyl_phase(k, phi)
    number, phase, cross, below, _ = _sums(state.amplitudes, k, phi)
    return CharSet(complex(number), complex(phase), complex(cross), weyl, min(1.0, float(below)))


def char_table(stacks, k: int, phi: float) -> tuple[CharSet, np.ndarray]:
    """:func:`char_set` of each row of ``stacks``, read one at a time, each of unit amplitude
    rows of one n_max taken as given, as one record of arrays over all rows (empty if none),
    checked once, and each row's :func:`mean_photon` from the |c|^2 the sums read.  Each row
    sums along its own length-one axis, so every product is the one-state dot: row i is bitwise
    its one-state values at one BLAS thread count (a dot as long as n_max 16111 threads, and its
    last bits follow the count)."""
    k, weyl = weyl_phase(k, phi)  # before any row is read
    sums = (_sums(np.asarray(amps)[..., None, :], k, phi) for amps in stacks)
    none = (np.empty((0, 1), complex),) * 3 + (np.empty((0, 1)),) * 2  # the columns of no rows
    cols = zip(none, *((*chars, probs @ np.arange(probs.shape[-1], dtype=float)) for *chars, probs in sums))
    number, phase, cross, below, nbar = (np.concatenate([x[..., 0] for x in col]) for col in cols)
    return CharSet(number, phase, cross, weyl, np.minimum(1.0, below)), nbar


# report calls the Gram step under this module-level name, so tracing can wrap it.
gram_matrices = gram_pair


def report(state: FockState, k: int, phi: float) -> UncertaintyReport:
    """``reports.report`` of the set at (k, phi) with its Gram determinants: U, U', U''
    (with the correction pi_k/2 * (1 - |number_char|^2)) and V, slacks at k*phi = pi."""
    cs = char_set(state, k, phi)
    g_plus, g_minus = gram_matrices(cs)
    return record(cs, (det3(g_plus), det3(g_minus)), 1.0, k * phi, True)


def phase_distribution(state: FockState, phi_grid: np.ndarray) -> np.ndarray:
    """Phase density P(phi) = |sum_n c_n exp(-i n phi)|^2 / (2 pi) on a grid.

    The grid must be finite and one period, phi_j = phi_0 + 2 pi j / M (e.g.
    [-pi, pi)), with |phi| small enough for its points to be told apart, or
    ValueError is raised; the sum is then one FFT at length M of c_n exp(-i n phi_0),
    folded modulo M only when n_max + 1 > M (the transform zero-pads a shorter vector).
    With M > 2 n_max the periodic rectangle quadrature of P is exact up to rounding.
    """
    grid = np.asarray(phi_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("phi_grid must be a 1-D grid with at least 2 points")
    m, top = grid.size, max(grid.max(), -grid.min())  # max |phi|, NaN if any point is
    if not math.isfinite(top):
        raise ValueError("phi_grid must be finite")
    # The tolerance grows with |phi|; from half the step on, it would pass a
    # grid of equal or shuffled points as one period.
    tol = _GRID_TOL * (1.0 + top)
    if not tol < math.pi / m:
        raise ValueError(f"phi_grid points 2 pi / {m} apart cannot be told apart at |phi| = {top:g}")
    off = np.arange(m, dtype=float)  # phi_0 + 2 pi j / M - phi_j, all in this one array
    off *= 2.0 * math.pi / m
    off += grid[0]
    off -= grid
    if max(off.max(), -off.min()) > tol:
        raise ValueError("phi_grid must be phi_0 + 2 pi j / M for j = 0..M-1 (one period)")
    a = state.amplitudes * _phase_table(-grid[0], state.amplitudes.size)
    p = np.abs(np.fft.fft(a if a.size <= m else np.pad(a, (0, -a.size % m)).reshape(-1, m).sum(axis=0), m))
    return np.divide(np.square(p, out=p), 2.0 * math.pi, out=p)  # |FFT|^2 / 2 pi, in place


def mean_photon(state: FockState) -> float:
    """Mean photon number sum_n n |c_n|^2, by one dot."""
    return float(np.abs(state.amplitudes) ** 2 @ np.arange(state.n_max + 1))


def random_state(n_max: int, rng: np.random.Generator) -> FockState:
    """Random truncated pure state: normalized standard complex Gaussian vector."""
    c = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return FockState(c / np.linalg.norm(c))

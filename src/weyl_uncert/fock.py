"""Truncated single-mode phase and number machinery.

States are amplitude vectors over photon numbers 0..n_max.  The exponential
of phase is the one-sided-unitary operator E with E|n+1> = |n> (the
Susskind-Glogower shift); E^k acts as an index shift down, its adjoint as a
shift up, and exp(i phi n) as a diagonal phase.  All characteristic
functions are O(n_max) sums over amplitudes, and the phase density on a
periodic grid of M points is one length-M FFT (other grids are rejected);
dense operator matrices exist only in the test oracles.

Characteristic sets are :class:`reports.CharSet` records.  The two Gram
matrices of {psi, exp(+-i phi n) psi, Edag^k / E^k psi} differ because E is
not unitary: the second carries exp(-i k phi) (the Weyl phase) on its cross
entry and the weight of the subspace with fewer than k photons (pi_k) on
its diagonal.  Their determinants and the derived certainty functionals
U, U', U'', V are produced by :func:`report`, which builds the matrices with
:func:`gram_matrices` (``reports.gram_pair``) and evaluates them with
``det3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import det3
from .reports import CharSet, UncertaintyReport, functionals, gram_pair, unit_amplitudes

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


def _check_k(k: int) -> int:
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def apply_lowering(state: FockState, k: int) -> np.ndarray:
    """Amplitudes of E^k psi: c'_n = c_{n+k}, top k entries zero (all of
    them for k > n_max).

    The result is generally unnormalized, so a raw vector is returned
    rather than a FockState.
    """
    k = _check_k(k)
    c = state.amplitudes
    out = np.zeros_like(c)
    out[:-k] = c[k:]
    return out


def apply_raising(state: FockState, k: int) -> np.ndarray:
    """Amplitudes of Edag^k psi: c'_n = c_{n-k}, bottom k entries zero.

    The adjoint shift is an exact isometry, so the returned vector grows by
    k slots instead of pushing the top amplitudes past the truncation.
    """
    k = _check_k(k)
    c = state.amplitudes
    out = np.zeros(c.size + k, dtype=complex)
    out[k:] = c
    return out


def apply_phase_shift(state: FockState, phi: float) -> FockState:
    """exp(i phi n) psi; norm preserving."""
    n = np.arange(state.amplitudes.size)
    return FockState(np.exp(1j * phi * n) * state.amplitudes, state.tail_bound)


def char_set(state: FockState, k: int, phi: float) -> CharSet:
    """Characteristic set by direct amplitude sums: number_char = <exp(i phi n)>,
    phase_char = <Edag^k>, cross_char = <exp(-i phi n) Edag^k> and pi_k, the
    population of photon numbers below k.

    One phase table exp(i phi n), n = 0..n_max, serves both phase-weighted
    sums: the cross sum reads its conjugate from n = k on, which is bitwise
    exp(-i phi n) since cos is even and sin odd.  pi_k is clamped to 1, which
    its sum exceeds by rounding when the whole support lies below k.
    """
    k = _check_k(k)
    c = state.amplitudes
    phases = np.exp(1j * phi * np.arange(c.size))
    probs = np.abs(c) ** 2
    pair = np.conj(c[k:]) * c[:-k]
    return CharSet(
        complex(probs @ phases),
        complex(pair.sum()),
        complex(pair @ phases[k:].conj()),
        complex(np.exp(-1j * k * phi)),
        min(1.0, float(probs[:k].sum())),
    )


def stringent(k: int, phi: float) -> bool:
    """True when k*phi is congruent to pi (mod 2pi) within 1e-9."""
    return abs(math.remainder(k * phi - math.pi, 2.0 * math.pi)) <= 1e-9


# report calls the Gram step under this module-level name, so tracing can wrap it.
gram_matrices = gram_pair


def report(state: FockState, k: int, phi: float) -> UncertaintyReport:
    """Certainty functionals U, U', U'', V with slacks at the stringent point.

    U'' includes the non-unitarity correction pi_k/2 * (1 - |number_char|^2).
    The unit bounds on all four functionals are only derived at
    k*phi = pi (mod 2pi); elsewhere the values are still reported but the
    slack fields are None.
    """
    cs = char_set(state, k, phi)
    g_plus, g_minus = gram_matrices(cs)
    det_plus, det_minus = det3(g_plus), det3(g_minus)
    u, u_prime, u_double_prime, v = functionals(cs)
    applicable = stringent(k, phi)
    return UncertaintyReport(
        u=u,
        v=v,
        u_prime=u_prime,
        u_double_prime=u_double_prime,
        det_plus=det_plus,
        det_minus=det_minus,
        bound=1.0,
        applicable=applicable,
        slack_u=(1.0 - u) if applicable else None,
        slack_u_prime=(1.0 - u_prime) if applicable else None,
        slack_u_double_prime=(1.0 - u_double_prime) if applicable else None,
        slack_v=(0.5 - v) if applicable else None,
    )


def phase_distribution(state: FockState, phi_grid: np.ndarray) -> np.ndarray:
    """Phase density P(phi) = |sum_n c_n exp(-i n phi)|^2 / (2 pi) on a grid.

    The grid must be finite and one period, phi_j = phi_0 + 2 pi j / M (e.g.
    [-pi, pi)), with |phi| small enough for its points to be told apart, or
    ValueError is raised; the sum is then one length-M FFT of
    c_n exp(-i n phi_0) folded modulo M.  With M > 2 n_max the periodic
    rectangle quadrature of P over the period is exact up to rounding.
    """
    grid = np.asarray(phi_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("phi_grid must be a 1-D grid with at least 2 points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("phi_grid must be finite")
    m = grid.size
    top = float(np.max(np.abs(grid)))
    # The tolerance grows with |phi|; from half the step on, it would pass a
    # grid of equal or shuffled points as one period.
    tol = _GRID_TOL * (1.0 + top)
    if not tol < math.pi / m:
        raise ValueError(f"phi_grid points 2 pi / {m} apart cannot be told apart at |phi| = {top:g}")
    periodic = grid[0] + (2.0 * math.pi / m) * np.arange(m)
    if np.max(np.abs(grid - periodic)) > tol:
        raise ValueError("phi_grid must be phi_0 + 2 pi j / M for j = 0..M-1 (one period)")
    a = state.amplitudes * np.exp(-1j * grid[0] * np.arange(state.amplitudes.size))
    amp = np.fft.fft(np.pad(a, (0, -a.size % m)).reshape(-1, m).sum(axis=0))
    return np.abs(amp) ** 2 / (2.0 * math.pi)


def mean_photon(state: FockState) -> float:
    """Mean photon number sum_n n |c_n|^2."""
    n = np.arange(state.amplitudes.size)
    return float(n @ (np.abs(state.amplitudes) ** 2))


def random_state(n_max: int, rng: np.random.Generator) -> FockState:
    """Random truncated pure state: normalized standard complex Gaussian vector."""
    c = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return FockState(c / np.linalg.norm(c))

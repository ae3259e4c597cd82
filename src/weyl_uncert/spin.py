"""Finite-dimensional Weyl pair: clock and shift operators on d levels.

A dimension-d system (d = 2j+1, with j integer or half-integer) carries the
unitary clock operator exp(i 2pi j3 / d) and the conjugate shift operator
whose eigenvectors are the phase states.  Basis labels m run over
-j, -j+1, ..., j in ascending order; array index = m + j.  The pair obeys
the Weyl commutation relation

    shift^k clock^l = exp(-i 2pi k l / d) clock^l shift^k

for all integers k, l, which is what every check in this module leans on.

shift^k acts on amplitudes as a signed cyclic roll, so every quantity for one
(k, l) pair costs O(d) with no dense operator matrices (only :mod:`verify`'s
oracles have them) and reads its clock phases from one kept read-only table,
bitwise a fresh exp, of the 2d roots exp(i pi q / d) and the d exponents 2m:
40 d bytes (40 KiB at d = 1024, 40 MB at d = 10^6), kept until another d is
asked for.  :func:`char_table` covers all d^2 pairs of a stack of states at
once in O(d^3) per state: d rolls and one d x d matrix product each.

Characteristic sets are :class:`reports.CharSet` records whose Weyl phase is
exp(-i 2pi k l / d) and whose pi_k is 0, since shift^k is unitary.
:func:`report` takes its Gram determinants from ``reports.gram_pair`` and
``det3``, as ``fock.report`` does, and hands them to ``reports.report``,
the one recipe of the record for both systems: bound
``certainty_bound(gamma)``, U, V and their slacks always, U' and its slack
at gamma = pi only, no U''.  :func:`gram_dets` reads them off :func:`report`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import det3
from .reports import CharSet, UncertaintyReport, gram_pair, integer, unit_amplitudes, report as record

@dataclass(frozen=True)
class SpinSystem:
    """A d-level system, d = 2j+1 >= 2."""

    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", integer("dimension", self.dim, 2))

    @property
    def j(self) -> float:
        return (self.dim - 1) / 2.0

    def m_values(self) -> np.ndarray:
        """Basis labels -j..j, ascending."""
        return np.arange(self.dim) - self.j


@dataclass(frozen=True)
class QuditState:
    """Unit-norm amplitude vector over the m basis of a SpinSystem."""

    system: SpinSystem
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.amplitudes, dtype=complex)
        if c.shape != (self.system.dim,):
            raise ValueError(f"amplitudes must have shape ({self.system.dim},), got {c.shape}")
        object.__setattr__(self, "amplitudes", unit_amplitudes(c))


@functools.lru_cache(maxsize=1)
def _roots(dim: int) -> tuple[np.ndarray, np.ndarray]:
    roots, base = np.exp(1j * math.pi * np.arange(2 * dim) / dim), 2 * np.arange(dim) - (dim - 1)
    roots.flags.writeable = base.flags.writeable = False
    return roots, base


def _unit_phases(dim: int, power) -> np.ndarray:
    # exp(i 2pi m q / d), m = -j..j, as the kept root at 2m q mod 2d: q mod 2d first, exact for any int q.
    roots, base = _roots(dim)
    return roots[(base * (power % (2 * dim))) % (2 * dim)]


def _wrapped(dim: int, c: np.ndarray) -> np.ndarray:
    # c along axis 0, preceded by a copy times the wrap phase
    # exp(-i 2pi j) = (-1)^(d-1).  Its rows d-r .. 2d-r-1 are shift^r c for
    # r = 0..d: c rolled by r, with the r entries that wrap from the copy.
    return np.concatenate((c if dim % 2 else -c, c))


def _apply_shift(dim: int, k: int, c: np.ndarray) -> np.ndarray:
    # shift^k acts along axis 0 as the signed cyclic roll by r = k mod d,
    # and shift^d is the wrap sign times the identity, once per full period
    # q = k div d.  The result is a fresh array.
    q, r = divmod(k, dim)
    w = _wrapped(dim, c)[dim - r:2 * dim - r]
    return -w if dim % 2 == 0 and q % 2 else w


def phase_state(system: SpinSystem, m_tilde: float) -> QuditState:
    """Shift-operator eigenstate with label m_tilde in -j..j (integer steps).

    Amplitudes are exp(-i 2pi m m_tilde / d) / sqrt(d), with the exponent
    4 m m_tilde = (2t - d + 1)(2 ti - d + 1) reduced exactly modulo 4d.
    """
    # The range comes first: NaN, +-inf and an int no float holds (10**400) fail it, not the sum or round.
    t = m_tilde + system.j if abs(m_tilde) <= system.j + 1 else -1
    ti = round(t)
    if abs(t - ti) > 1e-9 or not 0 <= ti < system.dim:
        raise ValueError(f"m_tilde must lie in -j..j in integer steps, got {m_tilde}")
    d = system.dim
    num = ((2 * np.arange(d) - (d - 1)) * (2 * int(ti) - (d - 1))) % (4 * d)
    return QuditState(system, np.exp(-0.5j * math.pi * num / d) / math.sqrt(d))


def _weyl_phase(dim: int, k, ell):
    # exp(-i 2pi k l / d), with k l reduced modulo d in integers; a complex
    # for integer k, l and an array for integer arrays.  The angle is formed
    # in real arithmetic, where scalars and arrays round alike.
    z = np.exp(1j * (-2.0 * math.pi * ((k * ell) % dim) / dim))
    return z if isinstance(z, np.ndarray) else complex(z)


def weyl_defect(system: SpinSystem, k: int, ell: int) -> float:
    """Max-entry magnitude of shift^k clock^l - exp(-i 2pi k l / d) clock^l shift^k.

    Both products have one nonzero entry per row, in the same column
    (row - k) mod d, so applying them to the all-ones vector lists exactly
    those entries: O(d), no matrices.
    """
    d, k, ell = system.dim, integer("k", k), integer("l", ell)
    f = _unit_phases(d, ell)
    lhs = _apply_shift(d, k, f)
    rhs = f * _apply_shift(d, k, np.ones(d, dtype=complex))
    return float(np.max(np.abs(lhs - _weyl_phase(d, k, ell) * rhs)))


def weyl_angle(system: SpinSystem, k: int, ell: int) -> float:
    """gamma = 2pi k l / d reduced to (-pi, pi]."""
    k, ell = integer("k", k), integer("l", ell)
    q = (k * ell) % system.dim
    gamma = 2.0 * math.pi * q / system.dim
    if gamma > math.pi:
        gamma -= 2.0 * math.pi
    return gamma


def certainty_bound(gamma: float) -> float:
    """Upper bound for the sum of squared characteristic moduli at angle gamma.

    2 sqrt(2) (sqrt(2) - sqrt(1 - cos g)) / (1 + cos g) is 0/0 at g = pi;
    with 1 - cos g = 2 sin^2(g/2) and 1 + cos g = 2 cos^2(g/2) it reduces
    to 2 / (1 + |sin(g/2)|), which has no singularity.  Ranges over [1, 2]
    on (-pi, pi], from exactly 2 at g = 0 to exactly 1 at g = pi.
    """
    return 2.0 / (1.0 + abs(math.sin(gamma / 2.0)))


def char_set(state: QuditState, k: int, ell: int) -> CharSet:
    """Characteristic functions <clock^l>, <shift^k>, <clock^(-l) shift^k>.

    The clock expectation is a diagonal sum; shift^k psi is formed once as a
    signed cyclic roll and serves both the shift and the cross term.
    """
    d, c, k, ell = state.system.dim, state.amplitudes, integer("k", k), integer("l", ell)
    f = _unit_phases(d, ell)
    number_char = complex((np.abs(c) ** 2) @ f)
    w = _apply_shift(d, k, c)
    phase_char = complex(np.vdot(c, w))
    cross_char = complex(np.vdot(f * c, w))
    return CharSet(number_char, phase_char, cross_char, _weyl_phase(d, k, ell))


def char_table(amps) -> CharSet:
    """Characteristic sets of every pair (k, l), k, l = 1..d, as one record.

    ``amps`` is one state's amplitudes, or a stack of such rows of one system
    along leading axes, taken as given (as complex).  Every field is a read-only broadcast
    view of shape (..., d, d), entry [..., k-1, l-1] being ``char_set(state, k,
    l)`` of that row up to rounding (weyl and pi_k = 0 exactly).  Both powers
    have period d up to a sign, so these d^2 entries give every pair.  The
    clock phases are formed once and the d rolls shift^k psi once per row,
    contiguous, so each product is the one-state BLAS call: a stacked row is
    bitwise its state's own table.
    """
    c = np.asarray(amps, dtype=complex)
    d = c.shape[-1]
    powers = np.arange(1, d + 1)
    f = _unit_phases(d, powers[:, None])
    w = np.take(_wrapped(d, c.T).T, d + np.arange(d) - powers[:, None], axis=-1)  # [..., k-1, :]: shift^k c
    cross_char = w @ np.swapaxes((f * c[..., None, :]).conj(), -1, -2)
    fields = (np.swapaxes(f @ (np.abs(c) ** 2)[..., None], -1, -2), w @ c.conj()[..., None], cross_char,
              _weyl_phase(d, powers[:, None], powers[None, :]), 0.0)
    return CharSet(*(np.broadcast_to(x, cross_char.shape) for x in fields))


def cyclic_phase(state: QuditState, k: int, ell: int) -> complex:
    """<shift^-k clock^-l shift^k clock^l>, the closed-excursion phase.

    Equals exp(-i 2pi k l / d) for every state.
    """
    d, k, ell = state.system.dim, integer("k", k), integer("l", ell)
    w = _apply_shift(d, k, _unit_phases(d, ell) * state.amplitudes)
    w = _apply_shift(d, -k, _unit_phases(d, -ell) * w)
    return complex(np.vdot(state.amplitudes, w))


def gram_dets(state: QuditState, k: int, ell: int) -> tuple[float, float]:
    """Determinants of the Gram matrices for (k, l) and (-k, -l), as ``report`` gives
    them; the second comes from the (k, l) set through unitarity and the Weyl phase."""
    rep = report(state, k, ell)
    return rep.det_plus, rep.det_minus


def report(state: QuditState, k: int, ell: int) -> UncertaintyReport:
    """``reports.report`` of the set at (k, l) with its Gram determinants and
    ``certainty_bound(gamma)``: U' and its slack only at gamma = pi, no U''."""
    cs = char_set(state, k, ell)
    g_plus, g_minus = gram_pair(cs)
    gamma = weyl_angle(state.system, k, ell)
    return record(cs, (det3(g_plus), det3(g_minus)), certainty_bound(gamma), gamma, False)


def qubit_char(bloch, k: int = 1, ell: int = 1) -> CharSet:
    """Characteristic set of a qubit state rho = (I + s.sigma)/2, Pauli convention.

    Clock = sigma_z and shift = sigma_x, so for odd k and l the triple is
    (s_z, s_x, i s_y); even powers of a Pauli matrix are the identity.
    Mixed states (|s| < 1) are allowed.
    """
    k, ell = integer("k", k), integer("l", ell)
    s = np.asarray(bloch, dtype=float)
    if s.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {s.shape}")
    norm = math.hypot(*s)  # never overflows, where the dot in np.linalg.norm can
    if not norm <= 1.0 + 1e-12:
        raise ValueError(f"Bloch vector must be finite with |s| <= 1, got |s| = {norm!r}")
    z_odd, x_odd = ell % 2 == 1, k % 2 == 1
    number_char = complex(s[2]) if z_odd else complex(1.0)
    phase_char = complex(s[0]) if x_odd else complex(1.0)
    cross_char = 1j * s[1] if z_odd and x_odd else number_char * phase_char
    return CharSet(number_char, phase_char, cross_char, _weyl_phase(2, k, ell))


def random_state(system: SpinSystem, rng: np.random.Generator) -> QuditState:
    """Haar-like random pure state: normalized standard complex Gaussian vector."""
    c = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    return QuditState(system, c / np.linalg.norm(c))

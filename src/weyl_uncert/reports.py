"""Unit amplitudes, characteristic set, Gram pair, certainty functionals and
report record of both systems, which differ only in the Weyl phase on the
inverse-power cross term and in pi_k (0 for the unitary clock/shift pair).

:func:`gram_pair` and :func:`functionals` take a :class:`CharSet` of Python
scalars or of numpy arrays alike: the same code serves one configuration
and a whole table of them.  Values are checked once, by :class:`CharSet`.
:func:`report` is the one recipe that turns a set and its two Gram
determinants into an :class:`UncertaintyReport`, for either system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Hermitian3


def integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an int if it is an integer (at least ``least``, if given), else a ValueError naming it."""
    if value % 1 or least is not None and not value >= least:
        raise ValueError(f"{name} must be an integer{'' if least is None else f' >= {least}'}, got {value}")
    return int(value)


def unit_amplitudes(amps) -> np.ndarray:
    """A read-only complex copy of ``amps``, checked finite and of unit norm."""
    c = np.array(amps, dtype=complex)
    # np.linalg.norm's sum, by vdot and in Python floats, which (unlike .dot and numpy
    # scalars) overflow without a warning.  NaN or +-inf makes it non-finite: only then test entries.
    norm = math.sqrt(float(np.vdot(c.real, c.real)) + float(np.vdot(c.imag, c.imag)))
    if not math.isfinite(norm) and not np.all(np.isfinite(c.view(float))):
        raise ValueError("amplitudes must be finite")
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):g}")
    c.flags.writeable = False
    return c


@dataclass(frozen=True)
class CharSet:
    """Characteristic triple of one configuration, its Weyl phase and pi_k.

    number_char = <F>, phase_char = <S> and cross_char = <F^-1 S> for the
    system's number-type unitary F and phase-type shift S (clock^l and
    shift^k on a qudit; exp(i phi n) and Edag^k on the single mode).  The
    inverse-power Gram matrix carries weyl * conj(cross_char), and pi_k is
    the weight that the adjoint of S annihilates.

    Any field may be a numpy array, the fields broadcasting against each
    other to a table of configurations; scalar fields are checked without a
    numpy reduction, which keeps a single record cheap.  This is the one
    check before the Gram step: moduli at most 1 and pi_k in [0, 1], up to
    1e-12, which rejects NaN and +-inf in all five fields.
    """

    number_char: complex
    phase_char: complex
    cross_char: complex
    weyl: complex
    pi_k: float = 0.0

    def __post_init__(self) -> None:
        for name in ("number_char", "phase_char", "cross_char", "weyl"):
            size = abs(getattr(self, name))
            if isinstance(size, np.ndarray):
                size = float(size.max(initial=0.0))
            if not size <= 1.0 + 1e-12:
                raise ValueError(f"|{name}| exceeds 1 or is NaN: {size!r}")
        lo = hi = self.pi_k
        if isinstance(lo, np.ndarray):
            lo, hi = float(lo.min(initial=0.0)), float(hi.max(initial=0.0))
        if not -1e-12 <= lo <= hi <= 1.0 + 1e-12:
            raise ValueError(f"pi_k out of [0, 1]: {self.pi_k!r}")


def deviation(cs: CharSet, *ref) -> float:
    """Largest entrywise deviation of the three characters and pi_k of ``cs`` from the four values ``ref``."""
    return max(abs(x - y) for x, y in zip((cs.number_char, cs.phase_char, cs.cross_char, cs.pi_k), ref))


def gram_pair(cs: CharSet) -> tuple[Hermitian3, Hermitian3]:
    """Gram matrices of {psi, F psi, E^k psi} and of the inverse powers.

    The second conjugates the number and phase characters, multiplies the
    conjugated cross character by the Weyl phase and has 1 - pi_k last on
    its diagonal.  A table of characteristic sets gives tables of matrices,
    whose ``det3`` equals entry by entry the one of each scalar set.
    """
    number, phase, cross, w = cs.number_char, cs.phase_char, cs.cross_char, cs.weyl
    g_plus = Hermitian3.from_upper((1.0, 1.0, 1.0), (number, phase, cross))
    # weyl * conj(cross) in real products and sums, as Python's complex
    # product forms it, so that arrays round alike.
    weyl_cross = _complex(
        w.real * cross.real + w.imag * cross.imag, w.imag * cross.real - w.real * cross.imag
    )
    g_minus = Hermitian3.from_upper(
        (1.0, 1.0, 1.0 - cs.pi_k), (number.conjugate(), phase.conjugate(), weyl_cross)
    )
    return g_plus, g_minus


def _complex(re, im):
    # Exact for scalars and arrays; re + 1j * im would turn a -0.0 part into +0.0.
    if isinstance(re, np.ndarray):
        z = re.astype(complex)
        z.imag = im
        return z
    return complex(re, im)


def _abs(z):
    # hypot(re, im), which is Python's complex abs, for arrays too: numpy's
    # complex absolute rounds otherwise.
    return np.hypot(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z)


def functionals(cs: CharSet) -> tuple[float, float, float, float]:
    """U = |number|^2 + |phase|^2, U' = U + |cross|^2,
    U'' = U' + pi_k/2 * (1 - |number|^2) and V = |number| * |phase|, for a
    table entry by entry the values of its scalar sets."""
    ap, pp, cp = _abs(cs.number_char), _abs(cs.phase_char), _abs(cs.cross_char)
    u = ap * ap + pp * pp
    u_prime = u + cp * cp
    return u, u_prime, u_prime + 0.5 * cs.pi_k * (1.0 - ap * ap), ap * pp


@dataclass(frozen=True)
class UncertaintyReport:
    """Certainty functionals, Gram determinants, bound and slack.

    ``u`` is the sum of squared characteristic-function moduli, ``v`` their
    product, ``u_prime`` adds the squared cross term and ``u_double_prime``
    additionally the non-unitarity correction.  ``bound`` bounds ``u`` (and
    twice ``v``): the gamma-dependent bound for a qudit, 1 for the single
    mode.  ``applicable`` records whether the configuration sits at the
    stringent point (gamma = pi, resp. k*phi = pi) where the extended sum
    relations are derived.  :func:`report` sets which fields are None.
    """

    u: float
    v: float
    u_prime: float | None
    u_double_prime: float | None
    det_plus: float
    det_minus: float
    bound: float
    applicable: bool
    slack_u: float | None
    slack_u_prime: float | None
    slack_u_double_prime: float | None
    slack_v: float | None


def report(cs: CharSet, dets: tuple[float, float], bound: float, angle: float,
           single_mode: bool) -> UncertaintyReport:
    """The record of ``cs`` and its Gram determinants ``dets``.  ``applicable``: the
    angle (gamma, or k*phi) is pi mod 2pi within 1e-9.  Slacks bound - U and
    bound/2 - V where the bound is derived: always for a qudit, at that point for
    the single mode.  U' is reported for the single mode, and for a qudit at that
    point; U'' for the single mode only; slacks 1 - U', 1 - U'' at that point only."""
    u, u_prime, u_double_prime, v = functionals(cs)
    at_pi = abs(math.remainder(angle - math.pi, 2.0 * math.pi)) <= 1e-9
    derived = at_pi or not single_mode
    return UncertaintyReport(
        u=u,
        v=v,
        u_prime=u_prime if single_mode or at_pi else None,
        u_double_prime=u_double_prime if single_mode else None,
        det_plus=dets[0],
        det_minus=dets[1],
        bound=bound,
        applicable=at_pi,
        slack_u=bound - u if derived else None,
        slack_u_prime=1.0 - u_prime if at_pi else None,
        slack_u_double_prime=1.0 - u_double_prime if at_pi and single_mode else None,
        slack_v=bound / 2.0 - v if derived else None,
    )

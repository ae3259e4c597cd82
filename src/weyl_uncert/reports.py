"""Unit amplitudes, characteristic set, Gram pair, certainty functionals and
report record of both systems, which differ only in the Weyl phase on the
inverse-power cross term and in pi_k (0 for the unitary clock/shift pair).

:func:`gram_pair` and :func:`functionals` take a :class:`CharSet` of Python
scalars or of numpy arrays alike: the same code serves one configuration
and a whole table of them.  Values are checked once, by :class:`CharSet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Hermitian3


def unit_amplitudes(amps) -> np.ndarray:
    """A read-only complex copy of ``amps``, checked finite and of unit norm."""
    c = np.array(amps, dtype=complex)
    # np.linalg.norm's sum.  NaN or +-inf always makes it non-finite: only then test entries.
    norm = math.sqrt(c.real.dot(c.real) + c.imag.dot(c.imag))
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
                size = float(size.max())
            if not size <= 1.0 + 1e-12:
                raise ValueError(f"|{name}| exceeds 1 or is NaN: {size!r}")
        lo = hi = self.pi_k
        if isinstance(lo, np.ndarray):
            lo, hi = float(lo.min()), float(hi.max())
        if not -1e-12 <= lo <= hi <= 1.0 + 1e-12:
            raise ValueError(f"pi_k out of [0, 1]: {self.pi_k!r}")


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
    additionally the non-unitarity correction (single mode only; None for
    spin-like systems).

    ``bound`` is the applicable upper bound for ``u`` (and twice the bound
    for ``v``): the gamma-dependent bound for spin-like systems, 1 for the
    single mode.  ``applicable`` records whether the configuration sits at
    the stringent point (gamma = pi, resp. k*phi = pi) where the extended
    sum relations are derived; outside it the fields that have no derived
    bound are left as None.
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

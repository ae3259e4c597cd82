"""Unit amplitudes, characteristic set, Gram pair and determinants, certainty
functionals and report record of both systems, which differ only in the Weyl
phase on the inverse-power cross term and in pi_k (0 for the unitary
clock/shift pair).

:func:`gram_dets` and :func:`functionals` are closed forms in the fields of
a :class:`CharSet`, so they take Python scalars and numpy arrays alike: the
same code serves one configuration and a whole table of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Hermitian3, hermitian_det


def unit_amplitudes(amps) -> np.ndarray:
    """A read-only complex copy of ``amps``, checked finite and of unit norm."""
    c = np.array(amps, dtype=complex)
    if not np.all(np.isfinite(c.view(float))):
        raise ValueError("amplitudes must be finite")
    norm = float(np.linalg.norm(c))
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
    numpy reduction, which keeps a single record cheap.
    """

    number_char: complex
    phase_char: complex
    cross_char: complex
    weyl: complex
    pi_k: float = 0.0

    def __post_init__(self) -> None:
        for name in ("number_char", "phase_char", "cross_char"):
            size = abs(getattr(self, name))
            if isinstance(size, np.ndarray):
                size = float(np.max(size))
            if not size <= 1.0 + 1e-12:
                raise ValueError(f"|{name}| exceeds 1 or is NaN: {size!r}")
        lo = hi = self.pi_k
        if isinstance(lo, np.ndarray):
            lo, hi = float(np.min(lo)), float(np.max(hi))
        if not -1e-12 <= lo <= hi <= 1.0 + 1e-12:
            raise ValueError(f"pi_k out of [0, 1]: {self.pi_k!r}")


def gram_pair(cs: CharSet) -> tuple[Hermitian3, Hermitian3]:
    """Gram matrices of {psi, F psi, E^k psi} and of the inverse powers.

    The second conjugates the number and phase characters, multiplies the
    conjugated cross character by the Weyl phase and has 1 - pi_k last on
    its diagonal.
    """
    number, phase, cross = cs.number_char, cs.phase_char, cs.cross_char
    g_plus = Hermitian3.from_upper((1.0, 1.0, 1.0), (number, phase, cross))
    g_minus = Hermitian3.from_upper(
        (1.0, 1.0, 1.0 - cs.pi_k),
        (number.conjugate(), phase.conjugate(), cs.weyl * cross.conjugate()),
    )
    return g_plus, g_minus


def gram_dets(cs: CharSet) -> tuple:
    """Determinants of both :func:`gram_pair` matrices, in closed form.

    Each matrix has unit diagonal except D last and upper entries (a, b, c),
    so :func:`numerics.hermitian_det` gives its determinant
    D (1 - |a|^2) - |b|^2 - |c|^2 + 2 Re(a c conj(b)): D = 1 with
    (number, phase, cross) for the first, D = 1 - pi_k with
    (conj number, conj phase, weyl * conj cross) for the second.  Array
    fields give arrays of determinants, each equal to the one its scalar
    entries give, and scalar fields give exactly ``det3`` of the
    :func:`gram_pair` matrices.
    """
    a, b, c, w = cs.number_char, cs.phase_char, cs.cross_char, cs.weyl
    det_plus = hermitian_det(1.0, 1.0, 1.0, a.real, a.imag, b.real, b.imag, c.real, c.imag)
    det_minus = hermitian_det(
        1.0, 1.0, 1.0 - cs.pi_k, a.real, -a.imag, b.real, -b.imag,
        w.real * c.real + w.imag * c.imag, w.imag * c.real - w.real * c.imag,
    )
    return det_plus, det_minus


def functionals(cs: CharSet) -> tuple[float, float, float, float]:
    """U = |number|^2 + |phase|^2, U' = U + |cross|^2,
    U'' = U' + pi_k/2 * (1 - |number|^2) and V = |number| * |phase|."""
    ap, pp, cp = abs(cs.number_char), abs(cs.phase_char), abs(cs.cross_char)
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

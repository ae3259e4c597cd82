"""Gram pair, certainty functionals and report record of both systems, which
differ only in the Weyl phase and in pi_k (0 for the clock/shift pair).
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import Hermitian3


def gram_pair(
    number: complex, phase: complex, cross: complex, weyl: complex, pi_k: float = 0.0
) -> tuple[Hermitian3, Hermitian3]:
    """Gram matrices of {psi, F psi, E psi} and of the inverse powers.

    The second conjugates the number and phase characters, multiplies the
    conjugated cross character by the Weyl phase and has 1 - pi_k last on
    its diagonal.
    """
    g_plus = Hermitian3.from_upper((1.0, 1.0, 1.0), (number, phase, cross))
    g_minus = Hermitian3.from_upper(
        (1.0, 1.0, 1.0 - pi_k),
        (number.conjugate(), phase.conjugate(), weyl * cross.conjugate()),
    )
    return g_plus, g_minus


def functionals(
    number: complex, phase: complex, cross: complex, pi_k: float = 0.0
) -> tuple[float, float, float, float]:
    """U = |number|^2 + |phase|^2, U' = U + |cross|^2,
    U'' = U' + pi_k/2 * (1 - |number|^2) and V = |number| * |phase|."""
    ap, pp, cp = abs(number), abs(phase), abs(cross)
    u = ap * ap + pp * pp
    u_prime = u + cp * cp
    return u, u_prime, u_prime + 0.5 * pi_k * (1.0 - ap * ap), ap * pp


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

"""Certainty relations for phase-number variables from the Weyl form of
commutation relations.

Finite-dimensional systems carry a clock/shift operator pair; a single
field mode carries the number operator and the one-sided-unitary
exponential of phase.  In both cases the positive semi-definiteness of
small Gram matrices bounds sums and products of characteristic-function
moduli, and this package computes, verifies and sweeps those relations.
"""

from . import analysis, families, fock, spin, verify
from .families import bessel_i
from .numerics import Hermitian3, det3
from .reports import UncertaintyReport

__version__ = "0.1.0"

__all__ = [
    "Hermitian3",
    "UncertaintyReport",
    "analysis",
    "bessel_i",
    "det3",
    "families",
    "fock",
    "spin",
    "verify",
]

"""Self-contained numeric kernels shared by the other modules.

Two small families of routines live here: modified Bessel functions of
integer order for complex argument, evaluated by direct power series with a
controlled stopping rule, and the 3x3 Hermitian matrix type with its
determinant (the Gram matrices of three state vectors).

:func:`hermitian_det` is the package's one Gram-determinant formula;
:func:`det3` applies it to the six entries a :class:`Hermitian3` keeps, and
``reports.gram_dets`` to the fields of a characteristic set or table.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

MAX_BESSEL_ORDER = 64
MAX_BESSEL_ARG = 100.0

_SERIES_CAP = 500
_SERIES_RTOL = 1e-16
_SERIES_FLOOR = 1e-300


def bessel_i(order: int, z: complex) -> complex:
    """Modified Bessel function I_order(z) for integer order >= 0, complex z.

    Direct power series

        I_nu(z) = sum_{m>=0} (z/2)^(2m+nu) / (m! (m+nu)!),

    summed until the current term magnitude drops below 1e-16 of the partial
    sum (with an absolute floor so z ~ 0 terminates), hard-capped at 500
    terms.  Every use in this package has |z| <= ~20, where a few dozen
    terms suffice; the admission bounds below keep the series regime honest.
    """
    order = int(order)
    if order < 0 or order > MAX_BESSEL_ORDER:
        raise ValueError(f"order out of range: need 0 <= order <= {MAX_BESSEL_ORDER}, got {order}")
    z = complex(z)
    if abs(z) > MAX_BESSEL_ARG:
        raise ValueError(f"argument out of range: need |z| <= {MAX_BESSEL_ARG}, got |z| = {abs(z)!r}")
    half = z / 2.0
    term = complex(1.0)
    for n in range(1, order + 1):
        term *= half / n
    total = term
    zz = half * half
    for m in range(1, _SERIES_CAP + 1):
        term *= zz / (m * (m + order))
        total += term
        if abs(term) < _SERIES_RTOL * (abs(total) + _SERIES_FLOOR):
            break
    return total


def hermitian_det(d0, d1, d2, ar, ai, br, bi, cr, ci):
    """det [[d0, a, b], [a*, d1, c], [b*, c*, d2]], a = ar + i ai and so on:
    d2 (d0 d1 - |a|^2) - d1 |b|^2 - d0 |c|^2 + 2 Re(a c conj(b)), in real
    products and sums only, which round alike on Python floats and numpy
    arrays; a unit d0 or d1 enters through exact products by 1.0."""
    re_acb = (ar * cr - ai * ci) * br + (ar * ci + ai * cr) * bi
    abs_a2, abs_b2, abs_c2 = ar * ar + ai * ai, br * br + bi * bi, cr * cr + ci * ci
    return d2 * (d0 * d1 - abs_a2) - d1 * abs_b2 - d0 * abs_c2 + 2.0 * re_acb


@dataclass(frozen=True, init=False)
class Hermitian3:
    """3x3 Hermitian matrix kept as its real diagonal (d0, d1, d2) and upper
    entries (a01, a02, a12); :meth:`from_upper` is the only constructor."""

    diag: tuple[float, float, float]
    upper: tuple[complex, complex, complex]

    @classmethod
    def from_upper(
        cls,
        diag: tuple[float, float, float],
        upper: tuple[complex, complex, complex],
    ) -> "Hermitian3":
        """Build from real diagonal (d0, d1, d2) and upper entries (a01, a02, a12),
        checked finite."""
        d0, d1, d2 = (float(x) for x in diag)
        a01, a02, a12 = (complex(x) for x in upper)
        if not all(map(cmath.isfinite, (d0, d1, d2, a01, a02, a12))):
            raise ValueError("matrix entries must be finite")
        g = object.__new__(cls)
        object.__setattr__(g, "diag", (d0, d1, d2))
        object.__setattr__(g, "upper", (a01, a02, a12))
        return g

    @property
    def mat(self) -> np.ndarray:
        """The full matrix as a read-only complex array, built on each access."""
        (d0, d1, d2), (a, b, c) = self.diag, self.upper
        m = np.array([[d0, a, b], [a.conjugate(), d1, c], [b.conjugate(), c.conjugate(), d2]])
        m.flags.writeable = False
        return m


def det3(g: Hermitian3) -> float:
    """Determinant of g: :func:`hermitian_det` on its six entries."""
    (d0, d1, d2), (a, b, c) = g.diag, g.upper
    return hermitian_det(d0, d1, d2, a.real, a.imag, b.real, b.imag, c.real, c.imag)

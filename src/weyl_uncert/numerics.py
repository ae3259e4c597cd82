"""Self-contained numeric kernels shared by the other modules.

Two small families of routines live here: modified Bessel functions of
integer order for complex argument, evaluated by direct power series with a
controlled stopping rule, and the 3x3 Hermitian matrix record, which
checks nothing, with its determinant (the Gram matrices of three state
vectors).  :func:`det3` is the package's one Gram-determinant formula, for
one matrix and for a table of them alike.
"""

from __future__ import annotations

from typing import NamedTuple

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
    if order % 1 or not 0 <= order <= MAX_BESSEL_ORDER:  # a non-integer, nan included
        raise ValueError(f"order out of range: need an integer 0 <= order <= {MAX_BESSEL_ORDER}, got {order}")
    order = int(order)
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


class Hermitian3(NamedTuple):
    """3x3 Hermitian matrix as its real diagonal (d0, d1, d2) and upper entries
    (a01, a02, a12), held as given: ``reports.CharSet`` has checked every value
    they are formed from.  Entries may be numpy arrays that broadcast, so that
    one record holds a whole table of matrices."""

    diag: tuple
    upper: tuple

    @classmethod
    def from_upper(cls, diag, upper) -> "Hermitian3":
        """The record of diagonal (d0, d1, d2) and upper entries (a01, a02, a12)."""
        return cls(tuple(diag), tuple(upper))


def det3(g: Hermitian3):
    """Determinant of g, the package's one Gram-determinant formula.

    With upper entries (a, b, c) it is
    d2 (d0 d1 - |a|^2) - d1 |b|^2 - d0 |c|^2 + 2 Re(a c conj(b)), in real
    products and sums only, which round alike on Python scalars and numpy
    arrays: a table of matrices gives the array of the determinants its
    entries give one by one.  A unit d0 or d1 enters through exact products
    by 1.0.
    """
    (d0, d1, d2), (a, b, c) = g.diag, g.upper
    ar, ai, br, bi, cr, ci = a.real, a.imag, b.real, b.imag, c.real, c.imag
    re_acb = (ar * cr - ai * ci) * br + (ar * ci + ai * cr) * bi
    abs_a2, abs_b2, abs_c2 = ar * ar + ai * ai, br * br + bi * bi, cr * cr + ci * ci
    return d2 * (d0 * d1 - abs_a2) - d1 * abs_b2 - d0 * abs_c2 + 2.0 * re_acb

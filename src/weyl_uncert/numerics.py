"""The Gram kernel shared by both systems.

The 3x3 Hermitian matrix record, which checks nothing, and its determinant
(the Gram matrices of three state vectors).  :func:`det3` is the package's
one Gram-determinant formula, for one matrix and for a table of them alike.
"""

from __future__ import annotations

from typing import NamedTuple


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

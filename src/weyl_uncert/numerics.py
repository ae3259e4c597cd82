"""Self-contained numeric kernels shared by the other modules.

Two small families of routines live here: modified Bessel functions of
integer order for complex argument, evaluated by direct power series with a
controlled stopping rule, and the 3x3 Hermitian matrix type with its
closed-form determinant (the Gram matrices of three state vectors).

``Hermitian3(mat)`` validates an arbitrary matrix (shape, finiteness,
Hermitian to rounding level) and stores its Hermitian average.
``Hermitian3.from_upper``, the constructor on every report's Gram step,
checks only that its six scalars are finite: a matrix assembled from a real
diagonal and conjugated upper entries is exactly Hermitian already.
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


@dataclass(frozen=True)
class Hermitian3:
    """3x3 Hermitian matrix with symmetry exact by construction.

    The stored matrix is the Hermitian average of the input with an exactly
    real diagonal; construction fails if the input deviates from Hermitian
    by more than a rounding-level amount.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.mat, dtype=complex)
        if a.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("matrix entries must be finite")
        scale = 1.0 + float(np.max(np.abs(a)))
        if float(np.max(np.abs(a - a.conj().T))) > 1e-9 * scale:
            raise ValueError("matrix is not Hermitian")
        h = (a + a.conj().T) / 2.0
        np.fill_diagonal(h, np.diag(h).real)
        h.flags.writeable = False
        object.__setattr__(self, "mat", h)

    @classmethod
    def from_upper(
        cls,
        diag: tuple[float, float, float],
        upper: tuple[complex, complex, complex],
    ) -> "Hermitian3":
        """Build from real diagonal (d0, d1, d2) and upper entries (a01, a02, a12).

        Hermitian by construction, so only finiteness is checked.
        """
        d0, d1, d2 = (float(x) for x in diag)
        a01, a02, a12 = (complex(x) for x in upper)
        if not all(map(cmath.isfinite, (d0, d1, d2, a01, a02, a12))):
            raise ValueError("matrix entries must be finite")
        m = np.array(
            [
                [d0, a01, a02],
                [a01.conjugate(), d1, a12],
                [a02.conjugate(), a12.conjugate(), d2],
            ],
            dtype=complex,
        )
        m.flags.writeable = False
        g = object.__new__(cls)
        object.__setattr__(g, "mat", m)
        return g


def det3(g: Hermitian3) -> float:
    """Determinant by cofactor expansion on Python scalars; real for Hermitian input."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = g.mat.tolist()
    d = (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )
    if abs(d.imag) > 1e-12:
        raise ArithmeticError(f"Hermitian determinant came out non-real (imag {d.imag:g})")
    return float(d.real)

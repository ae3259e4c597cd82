"""Constructors for the single-mode example state families.

Each family builds a truncated FockState with a certified tail bound, and
where closed-form characteristic functions exist they are provided for
cross-validation against the generic amplitude sums:

* number states |n>,
* normalized shift-operator eigenstates (geometric xi^n, to 1 ulp for real xi;
  the last xi^n table is kept read-only, shared by all rows at one (xi, n_max)),
* Gaussian number statistics exp(-(a+ib)(n-nbar)^2) in the wide, smooth
  regime (a << 1, nbar >> 1), where the closed forms are the leading
  order of Poisson summation,
* eigenstates of (n + i lambda Edag) with eigenvalue 0, whose amplitudes
  are (-i lambda)^n / n! normalized by a modified Bessel function,
* coherent superpositions sqrt(alpha2) |n> + sqrt(1 - alpha2) |xi> of a
  number state and a near-ideal phase state (asymptotic closed forms,
  |xi| -> 1).

Each family is one frozen dataclass holding its checks, its spec-grammar
tag (TAG), the field each spec key names (KEYS), its state (_build) and
its closed forms (_closed_form).  The functions below only look these
up, so a new family is one new class, listed in FamilySpec.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
from dataclasses import MISSING, dataclass, fields, replace
from typing import Union, get_args, get_type_hints

import numpy as np

from . import fock
from .fock import FockState
from .numerics import bessel_i
from .reports import CharSet

TRUNCATION_CAP_ENV = "WEYL_UNCERT_MAX_NMAX"
DEFAULT_TRUNCATION_CAP = 4096

_TAIL_TARGET = 1e-14
_MIN_NMAX = 16


class ClosedFormUnavailable(ValueError):
    """The requested closed form does not apply for these parameters."""


class FamilySpecError(ValueError):
    """A family spec string failed to parse; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def truncation_cap(max_nmax: int | None = None) -> int:
    """Active n_max cap: max_nmax if given, else the override environment
    variable or the default."""
    if max_nmax is not None:
        return int(max_nmax)
    env = os.environ.get(TRUNCATION_CAP_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < _MIN_NMAX:
            raise ValueError(f"{TRUNCATION_CAP_ENV} must be an integer >= {_MIN_NMAX}, got {env!r}")
        return cap
    return DEFAULT_TRUNCATION_CAP


def _within_cap(need: int, cap: int) -> int:
    """need itself, if the n_max cap allows it."""
    if need <= cap:
        return need
    # A spec such as gaussian:nbar=1e308 needs an n_max of hundreds of digits.
    # Decimal rounds it to three digits as float would, without overflowing;
    # it is imported on this error path only, which keeps it out of every run.
    from decimal import Context, Decimal

    shown = need if need < 10**15 else format(Context(prec=3).normalize(Decimal(need)), "g")
    raise ValueError(
        f"truncation cap exceeded: family needs n_max = {shown} but the cap is {cap} "
        f"(raise it via {TRUNCATION_CAP_ENV} or the max_nmax argument)"
    )


def _geometric(xi: complex, cap: int, least: int) -> tuple[np.ndarray, float]:
    # (sqrt(1 - t) xi^n, t = |xi|^2, to the n_max >= least the tail target needs; its tail).
    t = abs(xi) ** 2
    need = math.ceil(math.log(_TAIL_TARGET) / math.log(t)) if t else 0
    n_max = _within_cap(max(least, _MIN_NMAX, need), cap)
    return _xi_powers(xi + 0.0, n_max), t ** (n_max + 1)


@functools.lru_cache(maxsize=1)
def _xi_powers(xi: complex, n_max: int) -> np.ndarray:
    # Kept read-only for the next call: all rows of a scan at one (xi, n_max) share it.
    # The key is xi + 0.0, as -0.0 == 0.0 would share it, yet the odd powers of -0.0 are -0.0.
    geo = math.sqrt(1.0 - abs(xi) ** 2) * np.power(xi.real if xi.imag == 0.0 else xi, np.arange(n_max + 1))
    geo.flags.writeable = False
    return geo


@dataclass(frozen=True)
class NumberState:
    n: int

    TAG = "number"
    KEYS = {"n": "n"}

    def __post_init__(self) -> None:
        if self.n % 1 != 0 or self.n < 0:
            raise ValueError(f"n must be an integer >= 0, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    def _build(self, cap: int) -> FockState:
        c = np.zeros(_within_cap(max(self.n, 8), cap) + 1, dtype=complex)
        c[self.n] = 1.0
        return FockState(c, 0.0)

    def _closed_form(self, k: int, phi: float, weyl: complex) -> CharSet:
        return CharSet(
            number_char=complex(np.exp(1j * phi * self.n)),
            phase_char=0.0j,
            cross_char=0.0j,
            weyl=weyl,
            pi_k=1.0 if self.n < k else 0.0,
        )


@dataclass(frozen=True)
class PhaseCoherent:
    xi: complex

    TAG = "phase-coherent"
    KEYS = {"xi": "xi"}

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", complex(self.xi))
        if not abs(self.xi) <= 1.0 - 1e-6:
            raise ValueError(f"normalizability needs |xi| <= 1 - 1e-6, got |xi| = {abs(self.xi)!r}")

    def _build(self, cap: int) -> FockState:
        c, tail = _geometric(self.xi, cap, 0)
        return FockState(c / np.linalg.norm(c), tail)

    def _closed_form(self, k: int, phi: float, weyl: complex) -> CharSet:
        t = abs(self.xi) ** 2
        number = (1.0 - t) / (1.0 - t * np.exp(1j * phi))
        phase = np.conj(self.xi) ** k
        return CharSet(
            number_char=complex(number),
            phase_char=complex(phase),
            cross_char=complex(weyl * phase * np.conj(number)),
            weyl=weyl,
            pi_k=1.0 - t**k,
        )


@dataclass(frozen=True)
class GaussianNumber:
    nbar: float
    a: float
    b: float = 0.0

    TAG = "gaussian"
    KEYS = {"nbar": "nbar", "a": "a", "b": "b"}

    def __post_init__(self) -> None:
        if not 0.0 < self.a <= 0.1:
            raise ValueError(f"validity window needs 0 < a <= 0.1, got a = {self.a!r}")
        if not 5.0 / math.sqrt(self.a) <= self.nbar < math.inf:
            raise ValueError(
                f"validity window needs finite nbar >= 5/sqrt(a) = {5.0 / math.sqrt(self.a):.3g}, "
                f"got nbar = {self.nbar!r}"
            )
        # In the window, build's n_max - nbar stays below nbar, so b (n - nbar)^2
        # peaks at n = 0; it is formed here as build forms it.  b = 0 has no phase.
        if self.b and not math.isfinite(self.b * (self.nbar * self.nbar)):
            raise ValueError(
                f"phase b (n - nbar)^2 must be finite, got b = {self.b!r} at nbar = {self.nbar!r}"
            )

    def _build(self, cap: int) -> FockState:
        a, b, nbar = self.a, self.b, self.nbar
        n_max = _within_cap(max(_MIN_NMAX, math.ceil(nbar + 6.0 / math.sqrt(2.0 * a))), cap)
        n = np.arange(n_max + 1)
        c = np.exp(-(a + 1j * b) * (n - nbar) ** 2)
        tail = 0.5 * math.erfc(math.sqrt(2.0 * a) * (n_max - nbar)) + 0.5 * math.erfc(
            math.sqrt(2.0 * a) * (nbar + 1.0)
        )
        return FockState(c / np.linalg.norm(c), tail)

    def _closed_form(self, k: int, phi: float, weyl: complex) -> CharSet:
        if k > math.sqrt(self.nbar):
            raise ClosedFormUnavailable(
                f"continuum forms need k <= sqrt(nbar): k = {k}, nbar = {self.nbar!r}"
            )
        a, b, nbar = self.a, self.b, self.nbar
        e_number = -phi * phi / (8.0 * a)
        e_phase = -(a * a + b * b) * k * k / (2.0 * a)
        e_cross = e_number + e_phase + b * k * phi / (2.0 * a)
        return CharSet(
            number_char=cmath.exp(complex(e_number, phi * nbar)),
            phase_char=complex(math.exp(e_phase)),
            cross_char=cmath.exp(complex(e_cross, -phi * (nbar + 0.5 * k))),
            weyl=weyl,
        )


@dataclass(frozen=True)
class BesselEigenstate:
    lam: float

    TAG = "bessel"
    KEYS = {"lambda": "lam"}

    def __post_init__(self) -> None:
        if not 0.0 < self.lam <= 50.0:
            raise ValueError(f"lambda must be in (0, 50], got {self.lam!r}")

    def _build(self, cap: int) -> FockState:
        lam = self.lam
        # Factorial decay is fast; push the tail far below the generic
        # target so the eigen-residual check keeps its 1e-8 headroom.
        target = 1e-22
        coeffs = [complex(1.0)]
        total = 1.0
        n = 0
        while True:
            n += 1
            coeffs.append(coeffs[-1] * (-1j * lam) / n)
            total += abs(coeffs[-1]) ** 2
            if n >= _MIN_NMAX and n + 2 > lam:
                t_next = abs(coeffs[-1]) ** 2 * (lam / (n + 1)) ** 2
                ratio = (lam / (n + 2)) ** 2
                rem = t_next / (1.0 - ratio)
                if rem < target * total:
                    tail = rem / total
                    break
            _within_cap(n, cap)
        c = np.asarray(coeffs)
        return FockState(c / np.linalg.norm(c), tail)

    def _closed_form(self, k: int, phi: float, weyl: complex) -> CharSet:
        lam = self.lam
        i0 = bessel_i(0, 2.0 * lam).real
        z = 2.0 * lam * np.exp(0.5j * phi)
        ik = 1j**k / i0
        pi_k = 0.0
        term = 1.0
        for m in range(k):
            if m > 0:
                term *= (lam / m) ** 2
            pi_k += term
        return CharSet(
            number_char=complex(bessel_i(0, z) / i0),
            phase_char=complex(ik * bessel_i(k, 2.0 * lam).real),
            cross_char=complex(ik * np.exp(-0.5j * k * phi) * bessel_i(k, z.conjugate())),
            weyl=weyl,
            pi_k=pi_k / i0,
        )


@dataclass(frozen=True)
class Intermediate:
    alpha2: float
    n: int
    xi: complex

    TAG = "intermediate"
    KEYS = {"alpha2": "alpha2", "n": "n", "xi": "xi"}

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha2 <= 1.0:
            raise ValueError(f"alpha2 must lie in [0, 1], got {self.alpha2!r}")
        object.__setattr__(self, "xi", complex(self.xi))
        if self.n % 1 != 0 or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not abs(self.xi) <= 1.0 - 1e-6:
            raise ValueError(f"normalizability needs |xi| <= 1 - 1e-6, got |xi| = {abs(self.xi)!r}")

    def _build(self, cap: int) -> FockState:
        geo, geo_tail = _geometric(self.xi, cap, self.n + 1)
        c = math.sqrt(1.0 - self.alpha2) * geo
        c[self.n] += math.sqrt(self.alpha2)
        norm = np.linalg.norm(c)  # the kept mass norm^2 bounds the discarded share
        return FockState(c / norm, (1.0 - self.alpha2) * geo_tail / norm**2)

    def _closed_form(self, k: int, phi: float, weyl: complex) -> CharSet:
        if abs(self.xi) < 0.99:
            raise ClosedFormUnavailable(
                f"asymptotic forms need |xi| >= 0.99, got |xi| = {abs(self.xi)!r}"
            )
        return CharSet(
            number_char=complex(self.alpha2 * np.exp(1j * phi * self.n)),
            phase_char=complex((1.0 - self.alpha2) * np.conj(self.xi) ** k),
            cross_char=0.0j,
            weyl=weyl,
        )


FamilySpec = Union[NumberState, PhaseCoherent, GaussianNumber, BesselEigenstate, Intermediate]
_FAMILIES = get_args(FamilySpec)

# The textual spec grammar: tag -> family class.
_GRAMMAR: dict[str, type] = {cls.TAG: cls for cls in _FAMILIES}

# Family tags and their keys, in canonical order.
SPEC_KEYS: dict[str, tuple[str, ...]] = {tag: tuple(cls.KEYS) for tag, cls in _GRAMMAR.items()}

# Each family's field types: complex fields read complex literals, float fields hold floats.
_TYPES = {cls: get_type_hints(cls) for cls in _FAMILIES}


def _family(spec: FamilySpec) -> FamilySpec:
    """spec itself, if it is an instance of one of the family classes."""
    if type(spec) not in _FAMILIES:
        raise TypeError(f"unknown family spec {spec!r}")
    return spec


def build(spec: FamilySpec, max_nmax: int | None = None) -> FockState:
    """Normalized truncated state for a family spec, tail certified.

    Truncation points are chosen so the discarded probability mass is below
    1e-14 (the Bessel family aims far lower so its eigen-residual survives
    in an extended space); amplitudes are renormalized exactly on the
    truncated lattice.  Exceeding the n_max cap is an error.
    """
    return _family(spec)._build(truncation_cap(max_nmax))


def closed_form_char(spec: FamilySpec, k: int, phi: float) -> CharSet:
    """Closed-form characteristic functions where the family admits them.

    Number, phase-coherent and Bessel states have exact complex closed
    forms, the last in modified Bessel functions with z = 2 lambda
    exp(i phi / 2): number = I_0(z) / I_0(2 lambda), phase = i^k I_k(2 lambda)
    / I_0(2 lambda) and cross = i^k exp(-i k phi / 2) I_k(conj z) / I_0(2 lambda).
    The intermediate family has asymptotic forms (|xi| -> 1).

    The Gaussian forms are the leading order of Poisson summation in
    m = n - nbar: number = exp(i phi nbar - phi^2/(8a)), phase =
    exp(-(a^2 + b^2) k^2/(2a)) > 0 and cross = exp(e_c - i phi (nbar + k/2)),
    with e_c = -phi^2/(8a) - (a^2 + b^2) k^2/(2a) + b k phi/(2a) = -a k^2/2 -
    (phi - 2bk)^2/(8a) < 0.  Dropped are the lattice images at phi -+ 2 pi,
    of size exp(-(2 pi - |phi|)^2/(8a)), and the k-shifted sums' cut at n_max.

    Outside a family's valid regime this raises ClosedFormUnavailable
    instead of returning numbers that do not mean anything.
    """
    k = fock._check_k(k)
    return _family(spec)._closed_form(k, phi, np.exp(-1j * k * phi))


def oracle_check(spec: FamilySpec, k: int, phi: float, max_nmax: int | None = None) -> float:
    """Largest entrywise deviation between the amplitude-sum and the closed-form
    characteristic set: the three complex characters, phases included, and
    pi_k.  Raises ClosedFormUnavailable when no closed form applies.
    """
    cf = closed_form_char(spec, k, phi)
    num = fock.char_set(build(spec, max_nmax), k, phi)
    return max(abs(num.number_char - cf.number_char), abs(num.phase_char - cf.phase_char),
               abs(num.cross_char - cf.cross_char), abs(num.pi_k - cf.pi_k))


def _typed(cls: type, name: str, value: complex | float | int) -> complex | float | int:
    # A float field holds a float, so an integer no float can hold fails here.
    return float(value) if _TYPES[cls][name] is float else value


def with_param(spec: FamilySpec, name: str, value: float) -> FamilySpec:
    """Copy of a family spec with one sweepable parameter replaced.

    Parameter names follow the textual spec grammar ('lam' is accepted for
    'lambda'), each naming one field of the family's dataclass.
    """
    field = _family(spec).KEYS.get("lambda" if name == "lam" else name)
    if field is None:
        raise ValueError(f"family {type(spec).__name__} has no sweepable parameter {name!r}")
    return replace(spec, **{field: _typed(type(spec), field, value)})


def parse_spec(text: str) -> FamilySpec:
    """Parse the canonical textual form, e.g. 'phase-coherent:xi=0.49'.

    Grammar: a family tag, then optional comma-separated key=value pairs,
    no spaces.  Each key names a field of the family's dataclass and is
    required unless that field has a default.  Values are integer or float
    literals; a complex field (xi) also reads 0.3+0.4j or (0.3+0.4j).
    Errors carry the offending position in the string.
    """
    head, sep, rest = text.partition(":")
    if head not in _GRAMMAR:
        raise FamilySpecError(f"unknown family {head!r}", 0)
    cls = _GRAMMAR[head]
    values: dict[str, complex | float | int] = {}
    pos = len(head) + 1
    parts = rest.split(",") if sep else []
    for part in parts:
        key, eq, val = part.partition("=")
        if not eq or not key:
            raise FamilySpecError(f"expected key=value, got {part!r}", pos)
        if key not in cls.KEYS:
            raise FamilySpecError(f"unknown key {key!r} for family {head!r}", pos)
        if key in values:
            raise FamilySpecError(f"duplicate key {key!r}", pos)
        try:
            # An integer literal stays an exact int: counts may exceed 2^53.
            values[key] = int(val)
        except ValueError:
            try:
                values[key] = (complex if _TYPES[cls][cls.KEYS[key]] is complex else float)(val)
            except ValueError:
                raise FamilySpecError(f"invalid number {val!r}", pos + len(key) + 1) from None
            if not cmath.isfinite(values[key]):
                raise FamilySpecError(f"non-finite number {val!r}", pos + len(key) + 1)
        pos += len(part) + 1
    required = {f.name for f in fields(cls) if f.default is MISSING}
    missing = sorted(k for k, name in cls.KEYS.items() if name in required and k not in values)
    if missing:
        raise FamilySpecError(f"missing required key(s) {', '.join(missing)}", len(text))
    try:
        return cls(**{cls.KEYS[k]: _typed(cls, cls.KEYS[k], v) for k, v in values.items()})
    except (ValueError, OverflowError) as err:
        raise FamilySpecError(str(err), len(head) + 1) from None


def _fmt_value(x: complex | float | int) -> str:
    if isinstance(x, int):
        return str(x)
    x = complex(x)
    if x.imag == 0.0:
        r = x.real
        return str(int(r)) if r == int(r) else repr(r)
    return repr(x)


def format_spec(spec: FamilySpec) -> str:
    """Canonical textual form of a family spec."""
    pairs = (f"{key}={_fmt_value(getattr(spec, name))}" for key, name in _family(spec).KEYS.items())
    return f"{spec.TAG}:{','.join(pairs)}"

"""Constructors for the single-mode example state families.

Each family builds a truncated FockState with a certified tail bound, and
where closed-form characteristic functions exist they are provided for
cross-validation against the generic amplitude sums:

* number states |n>,
* normalized shift-operator eigenstates (geometric amplitudes xi^n),
* Gaussian number statistics exp(-(a+ib)(n-nbar)^2) in the wide, smooth
  regime (a << 1, nbar >> 1), where the closed forms are the leading
  order of Poisson summation,
* eigenstates of (n + i lambda Edag) with eigenvalue 0, whose amplitudes
  are (-i lambda)^n / n! normalized by a modified Bessel function,
* coherent superpositions of a number state and a near-ideal phase state
  (asymptotic closed forms, |xi| -> 1).
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Union

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


@dataclass(frozen=True)
class NumberState:
    n: int

    def __post_init__(self) -> None:
        if self.n % 1 != 0 or self.n < 0:
            raise ValueError(f"n must be an integer >= 0, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class PhaseCoherent:
    xi: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", complex(self.xi))
        if not abs(self.xi) <= 1.0 - 1e-6:
            raise ValueError(f"normalizability needs |xi| <= 1 - 1e-6, got |xi| = {abs(self.xi)!r}")


@dataclass(frozen=True)
class GaussianNumber:
    nbar: float
    a: float
    b: float = 0.0

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


@dataclass(frozen=True)
class BesselEigenstate:
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam <= 50.0:
            raise ValueError(f"lambda must be in (0, 50], got {self.lam!r}")


@dataclass(frozen=True)
class Intermediate:
    alpha: complex
    beta: complex
    n: int
    xi: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "xi", complex(self.xi))
        if self.n % 1 != 0 or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        s = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(s - 1.0) <= 1e-6:
            raise ValueError(f"weights must satisfy |alpha|^2 + |beta|^2 = 1, got {s!r}")
        if not abs(self.xi) <= 1.0 - 1e-6:
            raise ValueError(f"normalizability needs |xi| <= 1 - 1e-6, got |xi| = {abs(self.xi)!r}")


FamilySpec = Union[NumberState, PhaseCoherent, GaussianNumber, BesselEigenstate, Intermediate]


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


def _cap_error(need: int, cap: int) -> ValueError:
    # A spec such as gaussian:nbar=1e308 needs an n_max of hundreds of digits.
    # Decimal rounds it to three digits as float would, without overflowing;
    # it is imported on this error path only, which keeps it out of every run.
    from decimal import Context, Decimal

    shown = need if need < 10**15 else format(Context(prec=3).normalize(Decimal(need)), "g")
    return ValueError(
        f"truncation cap exceeded: family needs n_max = {shown} but the cap is {cap} "
        f"(raise it via {TRUNCATION_CAP_ENV} or the max_nmax argument)"
    )


def _geometric_nmax(t: float, cap: int) -> tuple[int, float]:
    # Smallest n_max with truncated mass t^(n_max+1) below the tail target.
    if t == 0.0:
        return _MIN_NMAX, 0.0
    need = max(_MIN_NMAX, math.ceil(math.log(_TAIL_TARGET) / math.log(t)))
    if need > cap:
        raise _cap_error(need, cap)
    return need, t ** (need + 1)


def build(spec: FamilySpec, max_nmax: int | None = None) -> FockState:
    """Normalized truncated state for a family spec, tail certified.

    Truncation points are chosen so the discarded probability mass is below
    1e-14 (the Bessel family aims far lower so its eigen-residual survives
    in an extended space); amplitudes are renormalized exactly on the
    truncated lattice.  Exceeding the n_max cap is an error.
    """
    cap = truncation_cap(max_nmax)
    if isinstance(spec, NumberState):
        n_max = max(spec.n, 8)
        if n_max > cap:
            raise _cap_error(n_max, cap)
        c = np.zeros(n_max + 1, dtype=complex)
        c[spec.n] = 1.0
        return FockState(c, 0.0)

    if isinstance(spec, PhaseCoherent):
        t = abs(spec.xi) ** 2
        n_max, tail = _geometric_nmax(t, cap)
        idx = np.arange(n_max + 1)
        c = np.power(spec.xi, idx) * math.sqrt(1.0 - t)
        return FockState(c / np.linalg.norm(c), tail)

    if isinstance(spec, GaussianNumber):
        a, b, nbar = spec.a, spec.b, spec.nbar
        n_max = max(_MIN_NMAX, math.ceil(nbar + 6.0 / math.sqrt(2.0 * a)))
        if n_max > cap:
            raise _cap_error(n_max, cap)
        n = np.arange(n_max + 1)
        c = np.exp(-(a + 1j * b) * (n - nbar) ** 2)
        tail = 0.5 * math.erfc(math.sqrt(2.0 * a) * (n_max - nbar)) + 0.5 * math.erfc(
            math.sqrt(2.0 * a) * (nbar + 1.0)
        )
        return FockState(c / np.linalg.norm(c), tail)

    if isinstance(spec, BesselEigenstate):
        lam = spec.lam
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
            if n > cap:
                raise _cap_error(n, cap)
        c = np.asarray(coeffs)
        return FockState(c / np.linalg.norm(c), tail)

    if isinstance(spec, Intermediate):
        t = abs(spec.xi) ** 2
        n_max, geo_tail = _geometric_nmax(t, cap)
        n_max = max(n_max, spec.n + 1)
        if n_max > cap:
            raise _cap_error(n_max, cap)
        idx = np.arange(n_max + 1)
        c = spec.beta * math.sqrt(1.0 - t) * np.power(spec.xi, idx)
        c[spec.n] += spec.alpha
        tail = abs(spec.beta) ** 2 * geo_tail
        return FockState(c / np.linalg.norm(c), tail)

    raise TypeError(f"unknown family spec {spec!r}")


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
    weyl = np.exp(-1j * k * phi)

    if isinstance(spec, NumberState):
        return CharSet(
            number_char=complex(np.exp(1j * phi * spec.n)),
            phase_char=0.0j,
            cross_char=0.0j,
            weyl=weyl,
            pi_k=1.0 if spec.n < k else 0.0,
        )

    if isinstance(spec, PhaseCoherent):
        t = abs(spec.xi) ** 2
        number = (1.0 - t) / (1.0 - t * np.exp(1j * phi))
        phase = np.conj(spec.xi) ** k
        return CharSet(
            number_char=complex(number),
            phase_char=complex(phase),
            cross_char=complex(weyl * phase * np.conj(number)),
            weyl=weyl,
            pi_k=1.0 - t**k,
        )

    if isinstance(spec, GaussianNumber):
        if k > math.sqrt(spec.nbar):
            raise ClosedFormUnavailable(
                f"continuum forms need k <= sqrt(nbar): k = {k}, nbar = {spec.nbar!r}"
            )
        a, b, nbar = spec.a, spec.b, spec.nbar
        e_number = -phi * phi / (8.0 * a)
        e_phase = -(a * a + b * b) * k * k / (2.0 * a)
        e_cross = e_number + e_phase + b * k * phi / (2.0 * a)
        return CharSet(
            number_char=cmath.exp(complex(e_number, phi * nbar)),
            phase_char=complex(math.exp(e_phase)),
            cross_char=cmath.exp(complex(e_cross, -phi * (nbar + 0.5 * k))),
            weyl=weyl,
        )

    if isinstance(spec, BesselEigenstate):
        lam = spec.lam
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

    if isinstance(spec, Intermediate):
        if abs(spec.xi) < 0.99:
            raise ClosedFormUnavailable(
                f"asymptotic forms need |xi| >= 0.99, got |xi| = {abs(spec.xi)!r}"
            )
        wa = abs(spec.alpha) ** 2
        wb = abs(spec.beta) ** 2
        return CharSet(
            number_char=complex(wa * np.exp(1j * phi * spec.n)),
            phase_char=complex(wb * np.conj(spec.xi) ** k),
            cross_char=0.0j,
            weyl=weyl,
        )

    raise TypeError(f"unknown family spec {spec!r}")


def oracle_check(spec: FamilySpec, k: int, phi: float, max_nmax: int | None = None) -> float:
    """Largest entrywise deviation between the amplitude-sum and the closed-form
    characteristic set: the three complex characters, phases included, and
    pi_k.  Raises ClosedFormUnavailable when no closed form applies.
    """
    cf = closed_form_char(spec, k, phi)
    num = fock.char_set(build(spec, max_nmax), k, phi)
    return max(
        abs(num.number_char - cf.number_char),
        abs(num.phase_char - cf.phase_char),
        abs(num.cross_char - cf.cross_char),
        abs(num.pi_k - cf.pi_k),
    )


def _weights(alpha2: float) -> dict:
    if not 0.0 <= alpha2 <= 1.0:
        raise ValueError(f"alpha2 must lie in [0, 1], got {float(alpha2)!r}")
    return {"alpha": math.sqrt(alpha2), "beta": math.sqrt(1.0 - alpha2)}


class _Key(NamedTuple):
    """One key of the spec grammar: spec -> value, and value -> constructor fields."""

    read: Callable[[FamilySpec], complex | float | int]
    write: Callable[[float], dict]
    required: bool = True


def _field(name: str, convert: Callable = lambda v: v, required: bool = True) -> _Key:
    return _Key(lambda spec: getattr(spec, name), lambda v: {name: convert(v)}, required)


# The textual spec grammar: tag -> (spec class, keys in canonical order).
_GRAMMAR: dict[str, tuple[type, dict[str, _Key]]] = {
    "number": (NumberState, {"n": _field("n")}),
    "phase-coherent": (PhaseCoherent, {"xi": _field("xi")}),
    "gaussian": (
        GaussianNumber,
        {"nbar": _field("nbar", float), "a": _field("a", float), "b": _field("b", float, False)},
    ),
    "bessel": (BesselEigenstate, {"lambda": _field("lam", float)}),
    "intermediate": (
        Intermediate,
        {
            "alpha2": _Key(lambda spec: abs(spec.alpha) ** 2, _weights),
            "n": _field("n"),
            "xi": _field("xi"),
        },
    ),
}
_TAG = {cls: tag for tag, (cls, _) in _GRAMMAR.items()}

# Family tags and their keys, in canonical order.
SPEC_KEYS: dict[str, tuple[str, ...]] = {tag: tuple(keys) for tag, (_, keys) in _GRAMMAR.items()}


def with_param(spec: FamilySpec, name: str, value: float) -> FamilySpec:
    """Copy of a family spec with one sweepable parameter replaced.

    Parameter names follow the textual spec grammar ('lam' is accepted for
    'lambda'); for the intermediate family 'alpha2' sets the number-state
    weight |alpha|^2 with real non-negative alpha, beta.
    """
    _, keys = _GRAMMAR.get(_TAG.get(type(spec)), (None, {}))
    key = keys.get("lambda" if name == "lam" else name)
    if key is None:
        raise ValueError(f"family {type(spec).__name__} has no sweepable parameter {name!r}")
    return replace(spec, **key.write(value))


def parse_spec(text: str) -> FamilySpec:
    """Parse the canonical textual form, e.g. 'phase-coherent:xi=0.49'.

    Grammar: a family tag, then optional comma-separated key=value pairs,
    no spaces.  Errors carry the offending position in the string.
    """
    head, sep, rest = text.partition(":")
    if head not in _GRAMMAR:
        raise FamilySpecError(f"unknown family {head!r}", 0)
    cls, keys = _GRAMMAR[head]
    values: dict[str, int | float] = {}
    pos = len(head) + 1
    parts = rest.split(",") if sep else []
    for part in parts:
        key, eq, val = part.partition("=")
        if not eq or not key:
            raise FamilySpecError(f"expected key=value, got {part!r}", pos)
        if key not in keys:
            raise FamilySpecError(f"unknown key {key!r} for family {head!r}", pos)
        if key in values:
            raise FamilySpecError(f"duplicate key {key!r}", pos)
        try:
            # An integer literal stays an exact int: counts may exceed 2^53.
            values[key] = int(val)
        except ValueError:
            try:
                values[key] = float(val)
            except ValueError:
                raise FamilySpecError(f"invalid number {val!r}", pos + len(key) + 1) from None
            if not math.isfinite(values[key]):
                raise FamilySpecError(f"non-finite number {val!r}", pos + len(key) + 1)
        pos += len(part) + 1
    missing = sorted(k for k, entry in keys.items() if entry.required and k not in values)
    if missing:
        raise FamilySpecError(f"missing required key(s) {', '.join(missing)}", len(text))
    try:
        fields: dict = {}
        for key, value in values.items():
            fields.update(keys[key].write(value))
        return cls(**fields)
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
    if type(spec) not in _TAG:
        raise TypeError(f"unknown family spec {spec!r}")
    tag = _TAG[type(spec)]
    pairs = (f"{name}={_fmt_value(key.read(spec))}" for name, key in _GRAMMAR[tag][1].items())
    return f"{tag}:{','.join(pairs)}"

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
tag (TAG), the field each spec key names (KEYS), its n_max and tail bound
(_truncation), its one elementwise amplitude formula as unnormalized rows of
specs at one n_max (_rows; build is the one-row case) and its closed forms
as the four values number, phase, cross and pi_k (_closed_form), which
:func:`closed_form_char` alone makes a checked CharSet.  The functions below
only look these up, so a new family is one new class, listed in FamilySpec;
:func:`sweep` reads a parameter grid.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
from dataclasses import MISSING, dataclass, fields, replace
from itertools import accumulate, groupby
from typing import Union, get_args, get_type_hints

import numpy as np

from . import fock
from .fock import FockState
from .numerics import MAX_BESSEL_ORDER, bessel_i
from .reports import CharSet, deviation, integer, unit_amplitudes

TRUNCATION_CAP_ENV = "WEYL_UNCERT_MAX_NMAX"
DEFAULT_TRUNCATION_CAP = 4096

_TAIL_TARGET = 1e-14
_MIN_NMAX = 16
# Zero-padded complex bytes per chunk: under glibc's 128 KiB mmap threshold, a chunk never page-faults.
_RUN_BYTES = 64 * 1024


class ClosedFormUnavailable(ValueError):
    """The requested closed form does not apply for these parameters."""


class FamilySpecError(ValueError):
    """A family spec string failed to parse; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def truncation_cap() -> int:
    """The n_max cap a command line asks for: the override environment
    variable if set, else the default.  The library itself never reads it."""
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


def _geometric(xi: complex, cap: int, least: int) -> tuple[int, float]:
    # (The n_max >= least at which sqrt(1 - t) xi^n, t = |xi|^2, meets the tail target; its tail).
    t = abs(xi) ** 2
    need = math.ceil(math.log(_TAIL_TARGET) / math.log(t)) if t else 0
    n_max = _within_cap(max(least, _MIN_NMAX, need), cap)
    return n_max, t ** (n_max + 1)


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
        object.__setattr__(self, "n", integer("n", self.n, 0))

    def _truncation(self, cap: int) -> tuple[int, float]:
        return _within_cap(max(self.n, 8), cap), 0.0

    @staticmethod
    def _rows(specs, n_max: int) -> np.ndarray:
        return (np.arange(n_max + 1) == np.array([[s.n] for s in specs])).astype(complex)

    def _closed_form(self, k: int, phi: float, weyl: complex) -> tuple:
        if self.n > 2**53:  # phi * n would be formed from a rounded n
            raise ClosedFormUnavailable(f"closed form needs n <= 2**53, got a {len(str(self.n))}-digit n")
        return np.exp(1j * phi * self.n), 0.0, 0.0, 1.0 if self.n < k else 0.0


@dataclass(frozen=True)
class PhaseCoherent:
    xi: complex

    TAG = "phase-coherent"
    KEYS = {"xi": "xi"}

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi", complex(self.xi))
        if not abs(self.xi) <= 1.0 - 1e-6:
            raise ValueError(f"normalizability needs |xi| <= 1 - 1e-6, got |xi| = {abs(self.xi)!r}")

    def _truncation(self, cap: int) -> tuple[int, float]:
        return _geometric(self.xi, cap, 0)

    @staticmethod
    def _rows(specs, n_max: int) -> np.ndarray:
        # One kept xi^n table per row, as each row's own build reads it.
        return np.array([_xi_powers(s.xi + 0.0, n_max) for s in specs])

    def _closed_form(self, k: int, phi: float, weyl: complex) -> tuple:
        t = abs(self.xi) ** 2
        number = (1.0 - t) / (1.0 - t * np.exp(1j * phi))
        phase = np.conj(self.xi) ** k
        return number, phase, weyl * phase * np.conj(number), 1.0 - t**k


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

    def _truncation(self, cap: int) -> tuple[int, float]:
        root, nbar = math.sqrt(2.0 * self.a), self.nbar
        n_max = _within_cap(max(_MIN_NMAX, math.ceil(nbar + 6.0 / root)), cap)
        return n_max, 0.5 * math.erfc(root * (n_max - nbar)) + 0.5 * math.erfc(root * (nbar + 1.0))

    @staticmethod
    def _rows(specs, n_max: int) -> np.ndarray:
        # The exponent is complex at b = 0 too: a real exp rounds differently.
        z = np.array([-(s.a + 1j * s.b) for s in specs])[:, None]
        nbar = np.array([s.nbar for s in specs])[:, None]
        return np.exp(z * (np.arange(n_max + 1) - nbar) ** 2)

    def _closed_form(self, k: int, phi: float, weyl: complex) -> tuple:
        if k > math.sqrt(self.nbar):
            raise ClosedFormUnavailable(
                f"continuum forms need k <= sqrt(nbar): k = {k}, nbar = {self.nbar!r}"
            )
        a, b, nbar = self.a, self.b, self.nbar
        e_number = -phi * phi / (8.0 * a)
        e_phase = -(a * a + b * b) * k * k / (2.0 * a)
        e_cross = e_number + e_phase + b * k * phi / (2.0 * a)
        return (cmath.exp(complex(e_number, phi * nbar)), math.exp(e_phase),
                cmath.exp(complex(e_cross, -phi * (nbar + 0.5 * k))), 0.0)


@dataclass(frozen=True)
class BesselEigenstate:
    lam: float

    TAG = "bessel"
    KEYS = {"lambda": "lam"}

    def __post_init__(self) -> None:
        if not 0.0 < self.lam <= 50.0:
            raise ValueError(f"lambda must be in (0, 50], got {self.lam!r}")

    def _truncation(self, cap: int) -> tuple[int, float]:
        # Factorial decay is fast; push the tail far below the generic target so the
        # eigen-residual check keeps its 1e-8 headroom.  m is |c_n|, in floats.  The loop ends
        # by n = 106 (lambda = 50), so the cap is checked once, on the n it ends at.
        lam, m, total, n = self.lam, 1.0, 1.0, 0
        while True:
            n += 1
            m = m * lam / n
            total += m ** 2  # pow, not m * m: the two can differ in the last bit and move n_max
            if n >= _MIN_NMAX and n + 2 > lam:
                rem = m ** 2 * (lam / (n + 1)) ** 2 / (1.0 - (lam / (n + 2)) ** 2)
                if rem < 1e-22 * total:
                    return _within_cap(n, cap), rem / total

    @staticmethod
    def _rows(specs, n_max: int) -> np.ndarray:
        # c_n = (-i lam)^n / n! = m_n (-i)^n, with m_n = m_{n-1} lam / n as _truncation forms it.
        steps = range(1, n_max + 1)
        m = [list(accumulate(steps, lambda m, n, lam=s.lam: m * lam / n, initial=1.0)) for s in specs]
        return np.array(m) * np.array([1, -1j, -1, 1j])[np.arange(n_max + 1) % 4]

    def _closed_form(self, k: int, phi: float, weyl: complex) -> tuple:
        if k > MAX_BESSEL_ORDER:
            raise ClosedFormUnavailable(f"Bessel series need k <= {MAX_BESSEL_ORDER}, got k = {k}")
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
        return (bessel_i(0, z) / i0, ik * bessel_i(k, 2.0 * lam).real,
                ik * np.exp(-0.5j * k * phi) * bessel_i(k, z.conjugate()), pi_k / i0)


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
        object.__setattr__(self, "n", integer("n", self.n, 1))
        PhaseCoherent(self.xi)  # the phase part's own |xi| check

    def _truncation(self, cap: int) -> tuple[int, float]:
        # Discarded over kept mass; untruncated, the mass is 1 + 2 sqrt(a2 (1 - a2)) Re <n|xi>.
        n_max, geo_tail = _geometric(self.xi, cap, self.n + 1)
        a2, lost = self.alpha2, (1.0 - self.alpha2) * geo_tail
        overlap = math.sqrt(1.0 - abs(self.xi) ** 2) * (self.xi**self.n).real
        return n_max, lost / (1.0 + 2.0 * math.sqrt(a2 * (1.0 - a2)) * overlap - lost)

    @staticmethod
    def _rows(specs, n_max: int) -> np.ndarray:
        c = PhaseCoherent._rows(specs, n_max)
        c *= np.sqrt([[1.0 - s.alpha2] for s in specs])
        c[np.arange(len(specs)), [s.n for s in specs]] += np.sqrt([s.alpha2 for s in specs])
        return c

    def _closed_form(self, k: int, phi: float, weyl: complex) -> tuple:
        if abs(self.xi) < 0.99:
            raise ClosedFormUnavailable(
                f"asymptotic forms need |xi| >= 0.99, got |xi| = {abs(self.xi)!r}"
            )
        number = NumberState(self.n)._closed_form(k, phi, weyl)[0]
        phase = PhaseCoherent(self.xi)._closed_form(k, phi, weyl)[1]
        return self.alpha2 * number, (1.0 - self.alpha2) * phase, 0.0, 0.0


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


def build(spec: FamilySpec, max_nmax: int = DEFAULT_TRUNCATION_CAP) -> FockState:
    """Normalized truncated state for a family spec, tail certified.

    Truncation points are chosen so the discarded probability mass is below
    1e-14 (the Bessel family aims far lower so its eigen-residual survives
    in an extended space); amplitudes are renormalized exactly on the
    truncated lattice.  Exceeding the n_max cap is an error.
    """
    n_max, tail = _family(spec)._truncation(max_nmax)
    c = spec._rows([spec], n_max)[0]
    return FockState(c / np.linalg.norm(c), tail)


def _named(name: str, value: float, make, *args):
    try:
        return make(*args)
    except ValueError as err:
        raise ValueError(f"family build failed at {name} = {float(value)!r}: {err}") from err


def _norms(rows: np.ndarray) -> np.ndarray:
    # np.linalg.norm of each row, bitwise: the same dots, one np.vecdot call each.
    parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
    return np.sqrt(sum(np.vecdot(x, x) for x in parts))


def sweep(template: FamilySpec, name: str, values, cap: int = DEFAULT_TRUNCATION_CAP):
    """Each value's :func:`build` amplitudes, bitwise, read as runs of unit rows of one n_max: views
    into chunks of rows whose zero-padded complex rows fit in ``_RUN_BYTES``, each built by one ``_rows``
    call at its largest n_max (the formulas are elementwise: a row's prefix is its own build)."""
    field(template, name)  # a name no value could fix fails before any row

    def chunks():
        chunk, top = [], 0
        for x in values:
            spec = _named(name, x, with_param, template, name, x)
            n_max = _named(name, x, spec._truncation, cap)[0]
            if chunk and (len(chunk) + 1) * (max(top, n_max) + 1) * 16 > _RUN_BYTES:  # complex rows
                yield chunk, top
                chunk, top = [], 0
            chunk.append((x, spec, n_max))
            top = max(top, n_max)
        if chunk:
            yield chunk, top

    for chunk, top in chunks():  # each row over its norm as build
        rows, i = chunk[0][1]._rows([spec for _, spec, _ in chunk], top), 0
        for n_max, same in groupby(chunk, key=lambda v: v[2]):
            xs = [x for x, _, _ in same]
            run, i = rows[i:i + len(xs), :n_max + 1], i + len(xs)
            run /= _norms(run)[:, None]
            # FockState's check of each row: its norm within 1e-12 of 1, so finite too.
            for x, norm, row in zip(xs, _norms(run).tolist(), run):
                if not abs(norm - 1.0) <= 1e-12:
                    _named(name, x, unit_amplitudes, row)
            yield run


def closed_form_char(spec: FamilySpec, k: int, phi: float) -> CharSet:
    """Closed-form characteristic functions where the family admits them.

    Number, phase-coherent and Bessel states have exact complex closed
    forms, the last in modified Bessel functions with z = 2 lambda
    exp(i phi / 2): number = I_0(z) / I_0(2 lambda), phase = i^k I_k(2 lambda)
    / I_0(2 lambda) and cross = i^k exp(-i k phi / 2) I_k(conj z) / I_0(2 lambda).
    The intermediate family has asymptotic forms (|xi| -> 1): alpha2 times the
    number state's number char and 1 - alpha2 times the phase state's phase char.

    The Gaussian forms are the leading order of Poisson summation in
    m = n - nbar: number = exp(i phi nbar - phi^2/(8a)), phase =
    exp(-(a^2 + b^2) k^2/(2a)) > 0 and cross = exp(e_c - i phi (nbar + k/2)),
    with e_c = -phi^2/(8a) - (a^2 + b^2) k^2/(2a) + b k phi/(2a) = -a k^2/2 -
    (phi - 2bk)^2/(8a) < 0.  Dropped are the lattice images at phi -+ 2 pi,
    of size exp(-(2 pi - |phi|)^2/(8a)), and the k-shifted sums' cut at n_max.

    Outside a family's valid regime this raises ClosedFormUnavailable
    instead of returning numbers that do not mean anything.
    """
    k = integer("k", k, 1)
    weyl = np.exp(-1j * k * phi)
    *chars, pi_k = _family(spec)._closed_form(k, phi, weyl)
    return CharSet(*map(complex, chars), weyl, pi_k)


def oracle_check(spec: FamilySpec, state: fock.FockState, k: int, phi: float) -> float:
    """Largest entrywise deviation between the amplitude-sum set of ``state`` (built
    from ``spec``) and the closed-form set: the three complex characters, phases
    included, and pi_k.  Raises ClosedFormUnavailable when no closed form applies.
    """
    cf = closed_form_char(spec, k, phi)
    return deviation(fock.char_set(state, k, phi), cf.number_char, cf.phase_char, cf.cross_char, cf.pi_k)


def _typed(cls: type, name: str, value: complex | float | int) -> complex | float | int:
    # A float field holds a float, so an integer no float can hold fails here.
    return float(value) if _TYPES[cls][name] is float else value


def field(spec: FamilySpec, name: str) -> str:
    """The field of the family's dataclass that a sweepable parameter's key names."""
    keys = _family(spec).KEYS
    if name not in keys:
        raise ValueError(f"family {type(spec).__name__} has no sweepable parameter {name!r} "
                         f"(keys: {', '.join(keys)})")
    return keys[name]


def with_param(spec: FamilySpec, name: str, value: float) -> FamilySpec:
    """Copy of a family spec with one sweepable parameter, named by its key (:func:`field`), replaced."""
    name = field(spec, name)
    return replace(spec, **{name: _typed(type(spec), name, value)})


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

